#include "src/server/server.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "src/obs/registry.h"
#include "src/persist/snapshot.h"
#include "src/sim/merge.h"
#include "src/structure/index_advisor.h"
#include "src/util/logging.h"

namespace cloudcache {
namespace server {

namespace {

/// Sends one Error frame; best-effort (the peer may already be gone).
void SendError(const Socket& conn, ErrorCode code,
               const std::string& message) {
  persist::Encoder enc;
  ErrorMsg msg;
  msg.code = code;
  msg.message = message;
  EncodeError(msg, &enc);
  const Status ignored = WriteFrame(conn, enc);
  (void)ignored;
}

/// How often the accept loops and the metrics read re-check the drain flag.
constexpr int64_t kStopPollMs = 200;

/// How long the metrics endpoint waits for a client's request head.
constexpr int64_t kMetricsRequestDeadlineMs = 1000;

/// How long a new connection has to deliver its whole Hello frame. A
/// Hello occupies a pool worker, so without this bound a few sockets that
/// never speak would hold every worker and deny service to the rest.
constexpr int64_t kHelloDeadlineMs = 2000;

/// Reads an HTTP request head from `fd` until the blank line, EOF, or
/// 8 KiB. False when the deadline or a drain cut the read short: the
/// endpoint answers one client at a time, so a silent one must not hold
/// the next scrape, or shutdown, past kMetricsRequestDeadlineMs.
bool ReadRequestHead(int fd, const std::atomic<bool>& stop,
                     std::string* request) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kMetricsRequestDeadlineMs);
  char buf[1024];
  while (request->find("\r\n\r\n") == std::string::npos &&
         request->size() < 8192) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0 || stop.load()) return false;
    pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    // Short slices, so a drain is noticed as fast as in the accept loop.
    const int slice = static_cast<int>(std::min<int64_t>(left, kStopPollMs));
    if (::poll(&pfd, 1, slice) <= 0) continue;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // EOF or error: answer what arrived.
    request->append(buf, static_cast<size_t>(n));
  }
  return true;
}

/// Pool size when ServerOptions::workers is 0: Hello handshakes are short,
/// so a few workers cover them plus some control connections.
constexpr uint32_t kDefaultWorkers = 4;

/// Bytes the event loop takes from one readable stream per recv.
constexpr size_t kReadChunkBytes = 16 * 1024;

}  // namespace

/// A stream connection after its HelloAck. Only the event loop touches it.
struct StreamConnection {
  std::shared_ptr<Socket> socket;
  uint32_t stream = 0;
  FrameReader reader;
  /// Framed replies the kernel has not taken yet: out[sent, size).
  std::vector<uint8_t> out;
  size_t sent = 0;
  /// The one query this stream has waiting for its merge turn.
  bool parked = false;
  Query query;
  bool eof = false;      // The peer sent FIN; buffered frames still count.
  bool closing = false;  // An Error is queued: flush it, then close.
  bool broken = false;   // A read or write failed: close now.

  bool flushed() const { return sent == out.size(); }
  /// Frames are parsed only when the previous one is fully answered: at
  /// most one parked query and one unflushed reply per stream. That is
  /// the backpressure — a pipelining client waits in its own buffers.
  bool ready_for_frame() const {
    return !parked && flushed() && !closing && !broken;
  }
  bool wants_input() const { return ready_for_frame() && !eof; }
  /// Nothing left to do. Checked right after parsing, so a stream at EOF
  /// has no complete frame left in its reader.
  bool done() const {
    return broken || (flushed() && (closing || (eof && !parked)));
  }
};

namespace {

/// Queues a framed message on `conn`.
void Queue(StreamConnection* conn, const persist::Encoder& enc) {
  if (!AppendFrame(enc, &conn->out).ok()) conn->broken = true;
}

/// Queues an Error on `conn`; the connection closes once it is flushed.
void QueueError(StreamConnection* conn, ErrorCode code,
                const std::string& message, persist::Encoder* enc) {
  ErrorMsg msg;
  msg.code = code;
  msg.message = message;
  enc->Clear();
  EncodeError(msg, enc);
  Queue(conn, *enc);
  conn->closing = true;
}

/// Sends what the kernel takes of `conn`'s queued replies. With
/// `wait_ms` > 0 it waits that long, once, for room. True when the
/// connection's state changed: its buffer emptied or a send failed.
bool Flush(StreamConnection* conn, int wait_ms = 0) {
  if (conn->flushed() || conn->broken) return false;
  while (conn->sent < conn->out.size()) {
    const ssize_t n =
        ::send(conn->socket->fd(), conn->out.data() + conn->sent,
               conn->out.size() - conn->sent, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) {
      conn->sent += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      conn->broken = true;
      return true;
    }
    if (wait_ms <= 0) return false;
    pollfd pfd;
    pfd.fd = conn->socket->fd();
    pfd.events = POLLOUT;
    pfd.revents = 0;
    ::poll(&pfd, 1, wait_ms);
    wait_ms = 0;
  }
  conn->out.clear();
  conn->sent = 0;
  return true;
}

/// Takes one chunk of whatever `conn`'s peer has sent.
void ReadInput(StreamConnection* conn, std::vector<uint8_t>* chunk) {
  const ssize_t n =
      ::recv(conn->socket->fd(), chunk->data(), chunk->size(), MSG_DONTWAIT);
  if (n > 0) {
    conn->reader.Append(chunk->data(), static_cast<size_t>(n));
  } else if (n == 0) {
    conn->eof = true;
  } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
    conn->broken = true;
  }
}

}  // namespace

CloudCachedServer::CloudCachedServer(
    const Catalog* catalog, const std::vector<QueryTemplate>* templates,
    const ExperimentConfig* config, ServerOptions options)
    : catalog_(catalog),
      templates_(templates),
      config_(config),
      options_(std::move(options)) {
  config_hash_ = HashExperimentConfig(*config_);
  multi_tenant_ = ExperimentDriverShape(*config_).multi_tenant;
  stream_count_ = config_->tenancy.tenants;
}

CloudCachedServer::~CloudCachedServer() {
  RequestShutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (metrics_thread_.joinable()) metrics_thread_.join();
  pool_.reset();
  if (loop_thread_.joinable()) loop_thread_.join();
}

Status CloudCachedServer::BuildEconomy() {
  if (resolved_.empty()) {
    Result<std::vector<ResolvedTemplate>> resolved =
        ResolveTemplates(*catalog_, *templates_);
    CLOUDCACHE_RETURN_IF_ERROR(resolved.status());
    resolved_ = std::move(resolved).value();
    indexes_ =
        RecommendIndexes(*catalog_, resolved_, config_->index_candidates);
  }
  // The identical graph RunExperiment builds — that is the whole point:
  // scheme construction, per-stream generators, and simulator options
  // all come from the one shared config, so the economy the connections
  // drive is the economy the simulator pins.
  scheme_ = MakeExperimentScheme(*catalog_, indexes_, *config_);
  twins_ = MakeExperimentStreams(*catalog_, resolved_, *config_);
  SimulatorOptions sim_options = config_->sim;
  sim_options.node_rent_multiplier = config_->cluster.node_rent_multiplier;
  sim_options.checkpoint.config_hash = config_hash_;
  sim_options.checkpoint.path = options_.snapshot_path;
  // The server applies the cadence itself (after each serve, under mu_),
  // and restore is handled in Start(): the simulator never runs its
  // internal driver here, and a server never crash-injects.
  sim_options.checkpoint.every = options_.checkpoint_every;
  sim_options.checkpoint.crash_after = 0;
  if (multi_tenant_) {
    std::vector<WorkloadGenerator*> generators;
    generators.reserve(twins_.size());
    for (const std::unique_ptr<WorkloadGenerator>& twin : twins_) {
      generators.push_back(twin.get());
    }
    sim_ = std::make_unique<Simulator>(catalog_, scheme_.get(),
                                       std::move(generators), sim_options);
  } else {
    sim_ = std::make_unique<Simulator>(catalog_, scheme_.get(),
                                       twins_[0].get(), sim_options);
  }
  return Status::OK();
}

Status CloudCachedServer::Start() {
  if (stream_count_ == 0) {
    return Status::InvalidArgument("config.tenancy.tenants must be >= 1");
  }
  CLOUDCACHE_RETURN_IF_ERROR(BuildEconomy());

  if (options_.restore != CheckpointOptions::Restore::kNone) {
    if (options_.snapshot_path.empty()) {
      return Status::InvalidArgument(
          "restore requested without a snapshot path");
    }
    const bool hard = options_.restore == CheckpointOptions::Restore::kHard;
    Status restored = Status::OK();
    Result<persist::SnapshotReader> reader =
        persist::SnapshotReader::FromFile(options_.snapshot_path);
    const bool missing =
        !reader.ok() && reader.status().code() == StatusCode::kNotFound;
    if (!reader.ok()) {
      restored = reader.status();
    } else {
      restored = sim_->RestoreFrom(reader.value());
    }
    if (!restored.ok()) {
      if (hard) return restored;
      if (missing) {
        std::fprintf(stderr,
                     "cloudcached: no snapshot at %s; starting fresh\n",
                     options_.snapshot_path.c_str());
      } else {
        persist::SetAsideRefusedSnapshot(
            "cloudcached", options_.snapshot_path, restored);
      }
      // A partial restore may have touched the graph; rebuild from
      // scratch, exactly like RunExperimentChecked's kAuto fallback.
      CLOUDCACHE_RETURN_IF_ERROR(BuildEconomy());
    }
  }
  sim_->ExternalBegin();

  Result<Socket> listener = ListenTcp(options_.host, options_.port);
  CLOUDCACHE_RETURN_IF_ERROR(listener.status());
  listener_ = std::move(listener).value();
  Result<uint16_t> port = LocalPort(listener_);
  CLOUDCACHE_RETURN_IF_ERROR(port.status());
  port_ = port.value();

  if (options_.metrics_port >= 0) {
    if (options_.metrics_port > 65535) {
      return Status::InvalidArgument("metrics port out of range");
    }
    Result<Socket> metrics_listener = ListenTcp(
        options_.host, static_cast<uint16_t>(options_.metrics_port));
    CLOUDCACHE_RETURN_IF_ERROR(metrics_listener.status());
    metrics_listener_ = std::move(metrics_listener).value();
    Result<uint16_t> metrics_port = LocalPort(metrics_listener_);
    CLOUDCACHE_RETURN_IF_ERROR(metrics_port.status());
    metrics_port_ = metrics_port.value();
  }

  const int wake = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake < 0) {
    return Status::IoError(std::string("eventfd: ") + std::strerror(errno));
  }
  wake_ = Socket(wake);

  streams_.assign(stream_count_, StreamState());
  pool_ = std::make_unique<ThreadPool>(
      options_.workers > 0 ? options_.workers : kDefaultWorkers);
  loop_thread_ = std::thread([this] { EventLoop(); });
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (metrics_listener_.valid()) {
    metrics_thread_ = std::thread([this] { MetricsLoop(); });
  }
  return Status::OK();
}

void CloudCachedServer::BeginDrain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  stop_.store(true);
  merge_cv_.notify_all();
  WakeEventLoop();
}

void CloudCachedServer::WakeEventLoop() {
  if (!wake_.valid()) return;
  const uint64_t one = 1;
  const ssize_t ignored = ::write(wake_.fd(), &one, sizeof(one));
  (void)ignored;  // A full counter already means "wake up".
}

void CloudCachedServer::RetireLocked(uint32_t stream) {
  streams_[stream].connected = false;
  streams_[stream].retired = true;
}

void CloudCachedServer::RequestShutdown() {
  BeginDrain();
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::shared_ptr<Socket>& conn : live_connections_) {
    conn->ShutdownBoth();
  }
}

void CloudCachedServer::AckShutdown(const Socket& conn) {
  // The drain is flagged before the ack goes out, so a client that has
  // read the ack always observes ShutdownRequested(). Only then are the
  // live sockets kicked — `conn` is one of them, and kicking it first
  // would lose the ack.
  BeginDrain();
  persist::Encoder enc;
  EncodeShutdownAck(&enc);
  const Status ignored = WriteFrame(conn, enc);
  (void)ignored;
  RequestShutdown();
}

Status CloudCachedServer::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  if (metrics_thread_.joinable()) metrics_thread_.join();
  // Runs any still-queued handlers (they see draining_ and bail) and
  // joins the workers; blocked reads were kicked by RequestShutdown.
  pool_.reset();
  if (loop_thread_.joinable()) loop_thread_.join();

  std::lock_guard<std::mutex> lock(mu_);
  CLOUDCACHE_RETURN_IF_ERROR(checkpoint_status_);
  if (options_.snapshot_path.empty()) return Status::OK();
  if (tainted_) {
    return Status::FailedPrecondition(
        "refusing the shutdown snapshot: " + taint_reason_ +
        " (the economy no longer matches any simulator-reachable state)");
  }
  if (sim_->external_processed() >= sim_->options().num_queries) {
    // Same rule as the drivers: a completed run is never checkpointed.
    std::fprintf(stderr,
                 "cloudcached: run complete (%llu queries); no shutdown "
                 "snapshot (nothing to resume)\n",
                 static_cast<unsigned long long>(sim_->external_processed()));
    return Status::OK();
  }
  return sim_->ExternalCheckpoint();
}

uint64_t CloudCachedServer::processed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sim_->external_processed();
}

void CloudCachedServer::AcceptLoop() {
  while (!stop_.load()) {
    pollfd pfd;
    pfd.fd = listener_.fd();
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, kStopPollMs);
    if (stop_.load()) break;
    if (ready <= 0) continue;
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_shared<Socket>(fd);
    EnableNoDelay(*conn);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (draining_) {
        continue;  // conn closes via RAII; the peer sees a reset.
      }
    }
    pool_->Submit([this, conn] { HandleConnection(conn); });
  }
  listener_.Close();
}

void CloudCachedServer::HandleConnection(std::shared_ptr<Socket> conn) {
  RegisterConnection(conn);

  std::vector<uint8_t> payload;
  bool clean_eof = false;
  HelloMsg hello;
  ReadLimit limit;
  limit.deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(kHelloDeadlineMs);
  limit.stop = &stop_;
  limit.slice_ms = kStopPollMs;
  const Status read = ReadFrame(*conn, limit, &payload, &clean_eof);
  if (!read.ok() || clean_eof) {
    UnregisterConnection(conn.get());
    return;
  }
  persist::Decoder dec(payload.data(), payload.size());
  MessageType type = MessageType::kHello;
  Status parsed = PeekType(&dec, &type);
  if (parsed.ok() && type != MessageType::kHello) {
    parsed = Status::InvalidArgument("first message must be Hello");
  }
  if (parsed.ok()) parsed = DecodeHello(&dec, &hello);
  if (!parsed.ok()) {
    SendError(*conn, ErrorCode::kBadFrame, parsed.message());
    UnregisterConnection(conn.get());
    return;
  }

  HelloAckMsg ack;
  ack.config_hash = config_hash_;
  ack.num_queries = sim_->options().num_queries;
  if (hello.protocol_version != kProtocolVersion) {
    SendError(*conn, ErrorCode::kVersionMismatch,
              "server speaks protocol version " +
                  std::to_string(kProtocolVersion) + ", client sent " +
                  std::to_string(hello.protocol_version));
    UnregisterConnection(conn.get());
    return;
  }
  if (hello.config_hash != 0 && hello.config_hash != config_hash_) {
    SendError(*conn, ErrorCode::kConfigMismatch,
              "client config hash does not match the server's experiment "
              "configuration");
    UnregisterConnection(conn.get());
    return;
  }

  if (hello.stream_id == kControlStream) {
    ack.stream_id = kControlStream;
    persist::Encoder enc;
    EncodeHelloAck(ack, &enc);
    if (WriteFrame(*conn, enc).ok()) ControlLoop(*conn);
    UnregisterConnection(conn.get());
    return;
  }
  if (hello.stream_id >= stream_count_) {
    SendError(*conn, ErrorCode::kStreamOutOfRange,
              "stream " + std::to_string(hello.stream_id) +
                  " out of range; this server runs " +
                  std::to_string(stream_count_) + " stream(s)");
    UnregisterConnection(conn.get());
    return;
  }

  const uint32_t stream = hello.stream_id;
  {
    // Decide under the lock, reply outside it: mu_ must never be held
    // across socket writes (or the re-lock in UnregisterConnection).
    ErrorCode refusal = ErrorCode::kInternal;
    std::string refusal_message;
    bool refused = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      StreamState& state = streams_[stream];
      if (draining_) {
        refused = true;
        refusal = ErrorCode::kShuttingDown;
        refusal_message = "server is draining";
      } else if (state.connected) {
        refused = true;
        refusal = ErrorCode::kStreamClaimed;
        refusal_message = "stream " + std::to_string(stream) +
                          " already has a live connection";
      } else if (state.retired) {
        // Once a stream leaves the merge the global order moved on
        // without it; re-admitting it would diverge from the simulator's
        // schedule.
        refused = true;
        refusal = ErrorCode::kNotAllowed;
        refusal_message = "stream " + std::to_string(stream) +
                          " already left the merge and cannot rejoin";
      } else {
        state.claimed = true;
        state.connected = true;
        ack.stream_id = stream;
        ack.next_query_id = twins_[stream]->queries_generated();
      }
    }
    if (refused) {
      SendError(*conn, refusal, refusal_message);
      UnregisterConnection(conn.get());
      return;
    }
  }
  persist::Encoder enc;
  EncodeHelloAck(ack, &enc);
  if (WriteFrame(*conn, enc).ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!draining_) {
      // From here the event loop owns the connection; this worker is free.
      adopted_.emplace_back(std::move(conn), stream);
      WakeEventLoop();
      return;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    RetireLocked(stream);
  }
  WakeEventLoop();  // The merge head may have moved.
  UnregisterConnection(conn.get());
}

void CloudCachedServer::EventLoop() {
  std::vector<std::unique_ptr<StreamConnection>> conns;
  std::vector<StreamConnection*> by_stream(stream_count_, nullptr);
  std::vector<pollfd> fds;
  std::vector<uint8_t> chunk(kReadChunkBytes);
  std::vector<uint8_t> payload;
  persist::Encoder enc;
  while (!stop_.load()) {
    // Slot 0 is wake_; slot i + 1 is conns[i]. A connection with nothing
    // to read or write (a parked query) is left out, so a peer that hung
    // up cannot spin the loop with POLLHUP.
    fds.clear();
    fds.push_back(pollfd{wake_.fd(), POLLIN, 0});
    for (const std::unique_ptr<StreamConnection>& conn : conns) {
      pollfd pfd{-1, 0, 0};
      if (conn->wants_input()) pfd.events |= POLLIN;
      if (!conn->flushed()) pfd.events |= POLLOUT;
      if (pfd.events != 0) pfd.fd = conn->socket->fd();
      fds.push_back(pfd);
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "cloudcached: event loop poll failed: %s\n",
                   std::strerror(errno));
      RequestShutdown();
      break;
    }
    if (stop_.load()) break;
    for (size_t i = 0; i < conns.size(); ++i) {
      const short revents = fds[i + 1].revents;
      StreamConnection* conn = conns[i].get();
      if ((revents & (POLLOUT | POLLERR | POLLHUP)) != 0) Flush(conn);
      if ((revents & (POLLIN | POLLERR | POLLHUP)) != 0 &&
          conn->wants_input()) {
        ReadInput(conn, &chunk);
      }
    }
    if (fds[0].revents != 0) {
      uint64_t wakes = 0;
      const ssize_t ignored = ::read(wake_.fd(), &wakes, sizeof(wakes));
      (void)ignored;
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [socket, stream] : adopted_) {
        auto conn = std::make_unique<StreamConnection>();
        conn->socket = std::move(socket);
        conn->stream = stream;
        by_stream[stream] = conn.get();
        conns.push_back(std::move(conn));
      }
      adopted_.clear();
    }
    // Run every consequence of what arrived: a parsed frame, a served
    // query, a flushed reply or a closed stream can each enable another.
    bool progressed = true;
    while (progressed && !stop_.load()) {
      progressed = false;
      for (const std::unique_ptr<StreamConnection>& conn : conns) {
        while (conn->ready_for_frame()) {
          bool popped = false;
          if (!conn->reader.Pop(&payload, &popped).ok()) {
            conn->broken = true;  // A refused length, as ReadFrame's.
          } else if (popped) {
            HandleStreamFrame(conn.get(), payload, &enc);
          } else {
            break;
          }
          progressed = true;
        }
      }
      progressed |= ReapClosed(&conns, &by_stream);
      progressed |= ServeParked(by_stream, &enc);
      for (const std::unique_ptr<StreamConnection>& conn : conns) {
        progressed |= Flush(conn.get());
      }
    }
  }

  // Drain: each parked query is refused with kShuttingDown, best-effort
  // (RequestShutdown may have kicked the socket already), and every
  // stream leaves the merge.
  for (const std::unique_ptr<StreamConnection>& conn : conns) {
    if (conn->parked) {
      QueueError(conn.get(), ErrorCode::kShuttingDown, "server is draining",
                 &enc);
    }
    Flush(conn.get());
  }
  std::vector<std::pair<std::shared_ptr<Socket>, uint32_t>> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::unique_ptr<StreamConnection>& conn : conns) {
      RetireLocked(conn->stream);
    }
    // draining_ is set before stop_, so no hand-off can follow this one.
    orphans.swap(adopted_);
    for (const auto& orphan : orphans) RetireLocked(orphan.second);
  }
  for (const std::unique_ptr<StreamConnection>& conn : conns) {
    UnregisterConnection(conn->socket.get());
  }
  for (const auto& orphan : orphans) UnregisterConnection(orphan.first.get());
}

void CloudCachedServer::HandleStreamFrame(StreamConnection* conn,
                                          const std::vector<uint8_t>& payload,
                                          persist::Encoder* enc) {
  persist::Decoder dec(payload.data(), payload.size());
  MessageType type = MessageType::kQuery;
  const Status parsed = PeekType(&dec, &type);
  if (!parsed.ok()) {
    QueueError(conn, ErrorCode::kBadFrame, parsed.message(), enc);
    return;
  }
  enc->Clear();
  switch (type) {
    case MessageType::kQuery: {
      const Status decoded = DecodeQuery(&dec, &conn->query);
      if (!decoded.ok()) {
        QueueError(conn, ErrorCode::kBadFrame, decoded.message(), enc);
        return;
      }
      conn->parked = true;
      return;
    }
    case MessageType::kStats:
      if (!DecodeStats(&dec).ok()) {
        QueueError(conn, ErrorCode::kBadFrame, "malformed Stats", enc);
        return;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        EncodeStatsAck(StatsLocked(), enc);
      }
      Queue(conn, *enc);
      return;
    case MessageType::kShutdown:
      if (!DecodeShutdown(&dec).ok()) {
        QueueError(conn, ErrorCode::kBadFrame, "malformed Shutdown", enc);
        return;
      }
      // AckShutdown's order: flag the drain, write the ack (the buffer
      // was empty, so it goes out first), then kick every connection.
      BeginDrain();
      EncodeShutdownAck(enc);
      Queue(conn, *enc);
      Flush(conn, static_cast<int>(kStopPollMs));
      conn->closing = true;
      RequestShutdown();
      return;
    default:
      QueueError(conn, ErrorCode::kNotAllowed,
                 std::string(MessageTypeName(type)) +
                     " not allowed on a stream connection",
                 enc);
      return;
  }
}

bool CloudCachedServer::ServeParked(
    const std::vector<StreamConnection*>& by_stream, persist::Encoder* enc) {
  uint64_t served = 0;
  bool complete = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Service begins only once every configured stream has claimed: until
    // then the earliest unclaimed stream might hold the merge head, and
    // serving around it would diverge from the simulator's schedule.
    const bool gate_open =
        std::all_of(streams_.begin(), streams_.end(),
                    [](const StreamState& state) { return state.claimed; });
    const uint64_t num_queries = sim_->options().num_queries;
    while (gate_open && !draining_ &&
           sim_->external_processed() < num_queries) {
      // The simulator's merge rule over the streams still in the merge.
      const size_t head = MergeHead(
          stream_count_,
          [this](size_t u) { return twins_[u]->PeekNextArrival(); },
          [this](size_t u) { return streams_[u].connected; });
      if (head == stream_count_ || by_stream[head] == nullptr ||
          !by_stream[head]->parked) {
        break;
      }
      ServeLocked(by_stream[head], enc);
      ++served;
    }
    complete = sim_->external_processed() >= num_queries;
  }
  if (served > 0) merge_cv_.notify_all();
  bool refused = false;
  if (complete) {
    for (StreamConnection* conn : by_stream) {
      if (conn == nullptr || !conn->parked) continue;
      conn->parked = false;
      QueueError(conn, ErrorCode::kRunComplete,
                 "the configured run of " +
                     std::to_string(sim_->options().num_queries) +
                     " queries is complete",
                 enc);
      refused = true;
    }
  }
  return served > 0 || refused;
}

void CloudCachedServer::ServeLocked(StreamConnection* conn,
                                    persist::Encoder* enc) {
  conn->parked = false;
  const Query& received = conn->query;
  const uint32_t stream = conn->stream;
  // The twin generator is the source of truth: draw its query, verify the
  // client sent the same one, and serve the twin's instance — the
  // economy's evolution is then a pure function of the configuration,
  // never of client-marshalled bytes.
  const Query expected = twins_[stream]->Next();
  if (received.id != expected.id ||
      received.template_id != expected.template_id ||
      received.arrival_time != expected.arrival_time ||
      received.table != expected.table ||
      received.tenant_id != expected.tenant_id) {
    tainted_ = true;
    taint_reason_ = "stream " + std::to_string(stream) +
                    " diverged from its twin generator at query " +
                    std::to_string(expected.id);
    QueueError(conn, ErrorCode::kStreamDiverged, taint_reason_, enc);
    return;
  }
  const ServedQuery served = sim_->ExternalServe(expected);
  const uint64_t processed = sim_->external_processed();
  OutcomeMsg outcome;
  outcome.query_id = expected.id;
  outcome.global_index = processed - 1;
  outcome.served = served.served;
  outcome.access = static_cast<uint8_t>(served.spec.access);
  outcome.throttled = served.throttled;
  outcome.response_seconds = served.execution.time_seconds;
  outcome.payment_micros = served.payment.micros();
  outcome.profit_micros = served.profit.micros();
  outcome.has_budget_case = served.has_budget_case;
  outcome.budget_case = static_cast<uint8_t>(served.budget_case);
  outcome.investments = served.investments;
  outcome.evictions = served.evictions;
  enc->Clear();
  EncodeOutcome(outcome, enc);
  Queue(conn, *enc);
  if (checkpoint_status_.ok() && !tainted_) {
    checkpoint_status_ = CheckpointStep(
        sim_->options().checkpoint, sim_->options().num_queries,
        processed - 1, processed,
        [this] { return sim_->ExternalCheckpoint(); });
    if (!checkpoint_status_.ok()) {
      std::fprintf(stderr, "cloudcached: checkpoint failed: %s\n",
                   checkpoint_status_.ToString().c_str());
    }
  }
  if (options_.log_every > 0 && processed % options_.log_every == 0) {
    std::fprintf(stderr, "cloudcached: served %llu/%llu, credit $%.2f\n",
                 static_cast<unsigned long long>(processed),
                 static_cast<unsigned long long>(sim_->options().num_queries),
                 scheme_->credit().ToDollars());
  }
}

bool CloudCachedServer::ReapClosed(
    std::vector<std::unique_ptr<StreamConnection>>* conns,
    std::vector<StreamConnection*>* by_stream) {
  const auto first_done = std::partition(
      conns->begin(), conns->end(),
      [](const std::unique_ptr<StreamConnection>& conn) {
        return !conn->done();
      });
  if (first_done == conns->end()) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = first_done; it != conns->end(); ++it) {
      RetireLocked((*it)->stream);
    }
  }
  for (auto it = first_done; it != conns->end(); ++it) {
    (*by_stream)[(*it)->stream] = nullptr;
    // Unregistered before the socket closes, so RequestShutdown never
    // kicks a recycled fd.
    UnregisterConnection((*it)->socket.get());
  }
  conns->erase(first_done, conns->end());
  return true;
}

void CloudCachedServer::ControlLoop(const Socket& conn) {
  std::vector<uint8_t> payload;
  bool clean_eof = false;
  while (true) {
    const Status read = ReadFrame(conn, &payload, &clean_eof);
    if (!read.ok() || clean_eof) return;
    persist::Decoder dec(payload.data(), payload.size());
    MessageType type = MessageType::kStats;
    if (!PeekType(&dec, &type).ok()) {
      SendError(conn, ErrorCode::kBadFrame, "unknown message type");
      return;
    }
    if (type == MessageType::kStats && DecodeStats(&dec).ok()) {
      persist::Encoder enc;
      {
        std::lock_guard<std::mutex> lock(mu_);
        EncodeStatsAck(StatsLocked(), &enc);
      }
      if (!WriteFrame(conn, enc).ok()) return;
      continue;
    }
    if (type == MessageType::kStatsSubscribe) {
      StatsSubscribeMsg sub;
      if (!DecodeStatsSubscribe(&dec, &sub).ok()) {
        SendError(conn, ErrorCode::kBadFrame, "malformed StatsSubscribe");
        return;
      }
      SubscriptionLoop(conn, sub.every);
      return;
    }
    if (type == MessageType::kShutdown && DecodeShutdown(&dec).ok()) {
      AckShutdown(conn);
      return;
    }
    SendError(conn, ErrorCode::kNotAllowed,
              "control connections speak Stats, StatsSubscribe, and "
              "Shutdown only");
    return;
  }
}

void CloudCachedServer::SubscriptionLoop(const Socket& conn,
                                         uint64_t every) {
  uint64_t next_at = 0;  // The first ack goes out immediately.
  while (true) {
    StatsAckMsg stats;
    bool final_ack = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      merge_cv_.wait(lock, [this, next_at] {
        return draining_ || stop_.load() ||
               sim_->external_processed() >= next_at ||
               sim_->external_processed() >= sim_->options().num_queries;
      });
      stats = StatsLocked();
      final_ack = draining_ || stop_.load() ||
                  stats.processed >= stats.num_queries;
    }
    next_at = stats.processed + every;
    // The frame goes out without mu_: a slow or stalled watcher must
    // never hold up the merge.
    persist::Encoder enc;
    EncodeStatsAck(stats, &enc);
    if (!WriteFrame(conn, enc).ok()) return;
    if (final_ack) return;
  }
}

StatsAckMsg CloudCachedServer::StatsLocked() const {
  StatsAckMsg stats;
  const SimMetrics& metrics = sim_->external_metrics();
  stats.processed = sim_->external_processed();
  stats.num_queries = sim_->options().num_queries;
  stats.served = metrics.served;
  stats.credit_micros = scheme_->credit().micros();
  for (const StreamState& state : streams_) {
    if (state.connected) ++stats.active_streams;
  }
  stats.served_in_cache = metrics.served_in_cache;
  stats.throttled = metrics.throttled;
  stats.investments = metrics.investments;
  stats.evictions = metrics.evictions;
  if (!metrics.tenants.empty()) {
    stats.streams.reserve(metrics.tenants.size());
    for (const TenantMetrics& tenant : metrics.tenants) {
      StreamStatsMsg slice;
      slice.stream = tenant.tenant_id;
      slice.queries = tenant.queries;
      slice.served = tenant.served;
      slice.throttled = tenant.throttled;
      stats.streams.push_back(slice);
    }
  } else {
    // Single-tenant runs keep no per-tenant block; synthesize the one
    // slice from the aggregates so watchers see a uniform shape.
    StreamStatsMsg slice;
    slice.stream = 0;
    slice.queries = metrics.queries;
    slice.served = metrics.served;
    slice.throttled = metrics.throttled;
    stats.streams.push_back(slice);
  }
  return stats;
}

std::string CloudCachedServer::RenderMetricsText() const {
  obs::Registry registry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    obs::FillFromSimMetrics(sim_->external_metrics(), &registry);
    // Server-side liveness gauges, beyond what SimMetrics carries.
    registry.Counter("cloudcache_server_processed_total",
                     "Queries served so far, in merged order.",
                     static_cast<double>(sim_->external_processed()));
    registry.Gauge("cloudcache_server_run_queries",
                   "Configured merged run length.",
                   static_cast<double>(sim_->options().num_queries));
    uint32_t active = 0;
    for (const StreamState& state : streams_) {
      if (state.connected) ++active;
    }
    registry.Gauge("cloudcache_server_active_streams",
                   "Workload streams with a live connection.",
                   static_cast<double>(active));
    registry.Gauge("cloudcache_server_credit_dollars",
                   "Live cloud credit CR.", scheme_->credit().ToDollars());
  }
  // Rendering is pure string work — do it off the economy's mutex.
  return registry.RenderPrometheus();
}

void CloudCachedServer::MetricsLoop() {
  while (!stop_.load()) {
    pollfd pfd;
    pfd.fd = metrics_listener_.fd();
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, kStopPollMs);
    if (stop_.load()) break;
    if (ready <= 0) continue;
    const int fd = ::accept(metrics_listener_.fd(), nullptr, nullptr);
    if (fd < 0) continue;
    Socket conn(fd);
    // One-shot HTTP/1.0 exchange: read the request head, answer, close.
    // Only the request line matters; headers are skipped.
    std::string request;
    const bool received = ReadRequestHead(fd, stop_, &request);
    if (stop_.load()) break;
    std::string status_line = "200 OK";
    std::string body;
    std::string content_type = "text/plain; charset=utf-8";
    if (!received) {
      status_line = "408 Request Timeout";
      body = "no request head within the deadline\n";
    } else if (request.rfind("GET ", 0) != 0) {
      status_line = "405 Method Not Allowed";
      body = "only GET is served\n";
    } else {
      const size_t path_end = request.find(' ', 4);
      const std::string path = path_end == std::string::npos
                                   ? std::string()
                                   : request.substr(4, path_end - 4);
      if (path == "/metrics" || path == "/") {
        body = RenderMetricsText();
        content_type = "text/plain; version=0.0.4; charset=utf-8";
      } else {
        status_line = "404 Not Found";
        body = "try /metrics\n";
      }
    }
    const std::string response =
        "HTTP/1.0 " + status_line + "\r\nContent-Type: " + content_type +
        "\r\nContent-Length: " + std::to_string(body.size()) +
        "\r\nConnection: close\r\n\r\n" + body;
    const Status ignored =
        WriteAll(conn, reinterpret_cast<const uint8_t*>(response.data()),
                 response.size());
    (void)ignored;
  }
  metrics_listener_.Close();
}

void CloudCachedServer::RegisterConnection(
    const std::shared_ptr<Socket>& conn) {
  std::lock_guard<std::mutex> lock(mu_);
  live_connections_.push_back(conn);
  if (draining_) conn->ShutdownBoth();
}

void CloudCachedServer::UnregisterConnection(const Socket* conn) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < live_connections_.size(); ++i) {
    if (live_connections_[i].get() == conn) {
      live_connections_.erase(
          live_connections_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

}  // namespace server
}  // namespace cloudcache
