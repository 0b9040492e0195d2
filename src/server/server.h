#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/server/protocol.h"
#include "src/server/socket_io.h"
#include "src/sim/experiment.h"
#include "src/sim/simulator.h"
#include "src/util/thread_pool.h"

namespace cloudcache {
namespace server {

/// A stream connection inside the event loop (server.cpp).
struct StreamConnection;

struct ServerOptions {
  /// Numeric IPv4 listen address.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port (read it back with port()).
  uint16_t port = kDefaultPort;
  /// Handler pool size for Hello handshakes and control connections
  /// (0 = 4). A stream connection leaves the pool once its HelloAck is
  /// out — the event loop serves it — so the pool needs no worker per
  /// stream; a control connection holds its worker until it closes.
  uint32_t workers = 0;
  /// Snapshot file written on graceful shutdown (and by the periodic
  /// cadence below). Empty disables persistence.
  std::string snapshot_path;
  /// Also snapshot every N served queries (0 = shutdown-only).
  uint64_t checkpoint_every = 0;
  /// Restore from snapshot_path at startup (same semantics as the
  /// simulator's --restore: kAuto degrades to a fresh economy on a
  /// missing/corrupt/mismatched snapshot, kHard fails Start()).
  CheckpointOptions::Restore restore = CheckpointOptions::Restore::kNone;
  /// Log a progress line to stderr every N served queries (0 = quiet).
  uint64_t log_every = 0;
  /// Serve Prometheus text exposition over HTTP on this port: GET
  /// /metrics (or /) answers with the live registry snapshot. -1
  /// disables; 0 binds an ephemeral port (read it back with
  /// metrics_port()). Observability-only — scraping never touches the
  /// economy beyond taking the stats mutex.
  int32_t metrics_port = -1;
};

/// The economy served over TCP (docs/server.md). One process hosts the
/// exact object graph the simulator drives — MakeExperimentScheme's
/// scheme, one twin WorkloadGenerator per stream, a Simulator in
/// external-drive mode. An accept loop hands each new connection to a
/// worker-pool handler for its Hello; control connections stay there,
/// and stream connections move to the one event-loop thread.
///
/// Determinism discipline: client connection #t claims workload stream t
/// (= tenant t). The server re-derives every stream from the shared
/// config, verifies each received query against its twin generator, and
/// serves queries strictly in the merged arrival order the simulator
/// would use (earliest arrival first, ties by stream id): the event loop
/// parks at most one query per stream and serves whenever the merge
/// head's stream has one parked. The economy the clients observe is
/// therefore bit-identical to `Simulator::Run()` on the same
/// configuration, and snapshots written here restore into
/// `cloudcache_sim --restore` (and vice versa).
///
/// The scheme is driven by that one thread, not sharded: ClusterScheme's
/// cross-node router, the shared account, and the rent meter are all
/// global state, and the paper's economy is defined over a serial order
/// of decisions. Connections fan in; decisions never fan out (ROADMAP:
/// the parallel decision loop is the windowed driver's job, offline).
class CloudCachedServer {
 public:
  /// `catalog`, `templates`, and `config` must outlive the server (the
  /// scheme keeps pointers into `config`). Call Start() next.
  CloudCachedServer(const Catalog* catalog,
                    const std::vector<QueryTemplate>* templates,
                    const ExperimentConfig* config, ServerOptions options);
  ~CloudCachedServer();

  CloudCachedServer(const CloudCachedServer&) = delete;
  CloudCachedServer& operator=(const CloudCachedServer&) = delete;

  /// Builds the economy (restoring from the snapshot when configured),
  /// binds the listen socket, and spawns the accept loop + worker pool.
  Status Start();

  /// The bound port (after Start()).
  uint16_t port() const { return port_; }

  /// The bound metrics port (after Start(); 0 when the endpoint is off).
  uint16_t metrics_port() const { return metrics_port_; }

  /// The Prometheus text exposition the metrics endpoint serves (also
  /// handy for tests that want the body without HTTP).
  std::string RenderMetricsText() const;

  /// Begins a graceful drain: stop accepting, fail in-flight and new
  /// requests with kShuttingDown, kick blocked reads. Idempotent and
  /// callable from any thread (a signal-watching main loop, a kShutdown
  /// handler, a test).
  void RequestShutdown();

  /// True once RequestShutdown has been called (by anyone).
  bool ShutdownRequested() const { return stop_.load(); }

  /// Joins the accept loop, the event loop and every handler, then
  /// writes the shutdown snapshot. Returns an error if the snapshot
  /// cannot be written, if a periodic checkpoint had failed, or if the
  /// run was tainted by a diverged stream (the snapshot is refused — it
  /// would not match any simulator-reachable state). Blocks until
  /// RequestShutdown happens.
  Status Wait();

  /// Served so far, in merged order (thread-safe).
  uint64_t processed() const;

  /// The live metrics block. Only meaningful once Wait() returned —
  /// while handlers run it is being mutated under the internal mutex.
  const SimMetrics& metrics() const { return sim_->external_metrics(); }

  uint64_t config_hash() const { return config_hash_; }

 private:
  struct StreamState {
    bool claimed = false;    // A Hello ever claimed this stream.
    bool connected = false;  // A connection currently feeds it.
    bool retired = false;    // Left the merge for good (close/divergence).
  };

  /// Flags the drain (draining_, stop_) and wakes every waiter and the
  /// event loop, without touching any socket.
  void BeginDrain();
  /// Answers a Shutdown on `conn`: flags the drain, writes the ack, then
  /// kicks every live connection (RequestShutdown).
  void AckShutdown(const Socket& conn);
  /// Builds (or rebuilds, for kAuto restore fallback) the scheme, the
  /// twin generators, and the external-drive simulator.
  Status BuildEconomy();
  void AcceptLoop();
  /// The Hello gate; hands a claimed stream to the event loop.
  void HandleConnection(std::shared_ptr<Socket> conn);
  /// Owns every stream connection after its HelloAck: polls them and
  /// wake_, parses frames as bytes arrive, serves parked queries in merge
  /// order, and queues replies on nonblocking per-connection buffers.
  /// Returns once the drain begins.
  void EventLoop();
  /// Acts on one frame from a stream connection: parks a Query, answers
  /// Stats and Shutdown, queues an Error for anything else.
  void HandleStreamFrame(StreamConnection* conn,
                         const std::vector<uint8_t>& payload,
                         persist::Encoder* enc);
  /// Serves parked queries while every stream has claimed and the merge
  /// head's stream has one parked; refuses parked queries once the run
  /// is complete. True when any reply was queued.
  bool ServeParked(const std::vector<StreamConnection*>& by_stream,
                   persist::Encoder* enc);
  /// Verifies `conn`'s parked query against its twin, serves it, runs the
  /// checkpoint cadence and progress log, and queues the reply. Requires
  /// mu_.
  void ServeLocked(StreamConnection* conn, persist::Encoder* enc);
  /// Closes finished connections and retires their streams. True when
  /// any closed.
  bool ReapClosed(std::vector<std::unique_ptr<StreamConnection>>* conns,
                  std::vector<StreamConnection*>* by_stream);
  /// Stats/Shutdown loop for control connections.
  void ControlLoop(const Socket& conn);
  /// Push loop after a StatsSubscribe: writes a StatsAck immediately,
  /// then every `every` served queries, then a final one at run
  /// completion or drain before returning.
  void SubscriptionLoop(const Socket& conn, uint64_t every);
  /// Accept loop + one-shot HTTP responder for the metrics endpoint.
  void MetricsLoop();
  /// Takes stream t out of the merge for good. Requires mu_.
  void RetireLocked(uint32_t stream);
  /// Makes the event loop's poll return.
  void WakeEventLoop();
  StatsAckMsg StatsLocked() const;
  void RegisterConnection(const std::shared_ptr<Socket>& conn);
  void UnregisterConnection(const Socket* conn);

  const Catalog* catalog_;
  const std::vector<QueryTemplate>* templates_;
  const ExperimentConfig* config_;
  ServerOptions options_;
  uint64_t config_hash_ = 0;
  bool multi_tenant_ = false;
  uint32_t stream_count_ = 1;

  std::vector<ResolvedTemplate> resolved_;
  std::vector<StructureKey> indexes_;
  std::unique_ptr<Scheme> scheme_;
  std::vector<std::unique_ptr<WorkloadGenerator>> twins_;
  std::unique_ptr<Simulator> sim_;

  Socket listener_;
  uint16_t port_ = 0;
  Socket metrics_listener_;
  uint16_t metrics_port_ = 0;
  std::thread metrics_thread_;
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> pool_;
  /// An eventfd: a stream handed to the event loop, a retirement outside
  /// it, or the drain makes its poll return.
  Socket wake_;
  std::thread loop_thread_;
  std::atomic<bool> stop_{false};

  /// Guards the economy (scheme_, twins_, sim_), the stream table, the
  /// hand-off queue, and the connection registry. merge_cv_ wakes
  /// subscribers once per served batch and when a drain begins.
  mutable std::mutex mu_;
  std::condition_variable merge_cv_;
  std::vector<StreamState> streams_;
  /// Claimed streams whose HelloAck went out, waiting for the event loop.
  std::vector<std::pair<std::shared_ptr<Socket>, uint32_t>> adopted_;
  bool draining_ = false;
  bool tainted_ = false;
  std::string taint_reason_;
  Status checkpoint_status_ = Status::OK();
  std::vector<std::shared_ptr<Socket>> live_connections_;
};

}  // namespace server
}  // namespace cloudcache
