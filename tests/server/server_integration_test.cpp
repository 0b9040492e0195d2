// cloudcached is the simulator served over sockets, and the tests pin
// exactly that claim:
//
//  1. Per-query equivalence: the outcome of every query served over a
//     real TCP connection equals what an externally-driven Simulator on
//     a duplicate object graph produces for the same query.
//  2. Concurrency is fan-in, not reordering: N racing connections
//     produce metrics bit-identical to serially merge-driving the same
//     streams — the merge gate serializes service into simulator order.
//  3. Persistence interop: the snapshot a draining server writes resumes
//     the classic driver bit-identically to an uninterrupted run.
//  4. Protocol discipline: the Hello gate rejects version, config-hash,
//     duplicate-claim, and out-of-range errors; a diverged stream taints
//     the run and shutdown refuses to write its snapshot.
//  5. One event loop serves every stream: streams hold no pool worker,
//     and hostile streams (a half-written frame, pipelined queries, the
//     merge head hanging up) neither wedge the loop nor reorder service.
//  6. A Hello has a deadline: silent or half-sent handshakes are closed,
//     so they cannot hold the pool's workers against later clients.

#include "src/server/server.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/catalog/tpch.h"
#include "src/server/protocol.h"
#include "src/server/socket_io.h"
#include "src/sim/experiment.h"
#include "src/sim/merge.h"
#include "src/structure/index_advisor.h"
#include "tests/testing/metrics_equal.h"

namespace cloudcache::server {
namespace {

using cloudcache::testing::ExpectBitIdenticalMetrics;
using cloudcache::testing::ExpectBitIdenticalTenants;

class ServerIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog(MakeTpchCatalog(100.0));
    templates_ = new std::vector<QueryTemplate>(MakeTpchTemplates());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
    delete templates_;
    templates_ = nullptr;
  }

  /// An economically active short run (investments and evictions happen)
  /// so the served outcomes actually exercise the economy.
  static ExperimentConfig ActiveConfig(uint64_t num_queries,
                                       uint32_t tenants) {
    ExperimentConfig config;
    config.scheme = SchemeKind::kEconCheap;
    config.workload.interarrival_seconds = 5.0;
    config.workload.seed = 29;
    config.seed = 30;
    config.sim.num_queries = num_queries;
    config.tenancy.tenants = tenants;
    config.tenancy.traffic_skew = tenants > 1 ? 1.0 : 0.0;
    config.customize_econ = [](EconScheme::Config& econ) {
      econ.economy.regret_fraction_a = 0.001;
      econ.economy.conservative_provider = false;
      econ.economy.initial_credit = Money::FromDollars(20);
      econ.economy.model_build_latency = false;
    };
    return config;
  }

  /// The duplicate object graph the server builds internally, wired for
  /// external drive — the reference the socket path must match.
  struct Reference {
    std::vector<ResolvedTemplate> resolved;
    std::vector<StructureKey> indexes;
    std::unique_ptr<Scheme> scheme;
    std::vector<std::unique_ptr<WorkloadGenerator>> generators;
    std::unique_ptr<Simulator> sim;
  };

  static Reference MakeReference(const ExperimentConfig& config) {
    Reference ref;
    ref.resolved = ResolveTemplates(*catalog_, *templates_).value();
    ref.indexes =
        RecommendIndexes(*catalog_, ref.resolved, config.index_candidates);
    ref.scheme = MakeExperimentScheme(*catalog_, ref.indexes, config);
    SimulatorOptions options = config.sim;
    options.node_rent_multiplier = config.cluster.node_rent_multiplier;
    const uint32_t tenants = config.tenancy.tenants;
    for (uint32_t t = 0; t < tenants; ++t) {
      ref.generators.push_back(std::make_unique<WorkloadGenerator>(
          catalog_, ref.resolved,
          TenantWorkloadOptions(config.workload, config.tenancy, t)));
    }
    const bool multi =
        tenants > 1 || config.tenancy.force_event_path;
    if (multi) {
      std::vector<WorkloadGenerator*> ptrs;
      for (auto& g : ref.generators) ptrs.push_back(g.get());
      ref.sim = std::make_unique<Simulator>(catalog_, ref.scheme.get(),
                                            std::move(ptrs), options);
    } else {
      ref.sim = std::make_unique<Simulator>(
          catalog_, ref.scheme.get(), ref.generators[0].get(), options);
    }
    ref.sim->ExternalBegin();
    return ref;
  }

  /// Pre-draws each stream's share of the next `count` merged queries
  /// (earliest arrival, ties to the lowest stream — the simulator rule).
  static std::vector<std::vector<Query>> DrawPlans(
      const ExperimentConfig& config, uint64_t count) {
    const std::vector<ResolvedTemplate> resolved =
        ResolveTemplates(*catalog_, *templates_).value();
    std::vector<std::unique_ptr<WorkloadGenerator>> generators;
    for (uint32_t t = 0; t < config.tenancy.tenants; ++t) {
      generators.push_back(std::make_unique<WorkloadGenerator>(
          catalog_, resolved,
          TenantWorkloadOptions(config.workload, config.tenancy, t)));
    }
    std::vector<std::vector<Query>> plans(generators.size());
    for (uint64_t i = 0; i < count; ++i) {
      const size_t head = MergeHead(generators.size(), [&](size_t u) {
        return generators[u]->PeekNextArrival();
      });
      plans[head].push_back(generators[head]->Next());
    }
    return plans;
  }

  static Catalog* catalog_;
  static std::vector<QueryTemplate>* templates_;
};

Catalog* ServerIntegrationTest::catalog_ = nullptr;
std::vector<QueryTemplate>* ServerIntegrationTest::templates_ = nullptr;

/// A Hello exchange's reply: exactly one of ack/error is meaningful.
struct HelloReply {
  bool acked = false;
  HelloAckMsg ack;
  ErrorMsg error;
};

/// Sends a Hello on an open connection and reads its reply.
Status Hello(const Socket& conn, uint32_t stream, uint64_t hash,
             HelloReply* reply, uint32_t version = kProtocolVersion) {
  HelloMsg hello;
  hello.protocol_version = version;
  hello.stream_id = stream;
  hello.config_hash = hash;
  persist::Encoder enc;
  EncodeHello(hello, &enc);
  CLOUDCACHE_RETURN_IF_ERROR(WriteFrame(conn, enc));
  std::vector<uint8_t> payload;
  bool clean_eof = false;
  CLOUDCACHE_RETURN_IF_ERROR(ReadFrame(conn, &payload, &clean_eof));
  if (clean_eof) return Status::IoError("closed during Hello");
  persist::Decoder dec(payload.data(), payload.size());
  MessageType type = MessageType::kHelloAck;
  CLOUDCACHE_RETURN_IF_ERROR(PeekType(&dec, &type));
  if (type == MessageType::kError) {
    reply->acked = false;
    return DecodeError(&dec, &reply->error);
  }
  if (type != MessageType::kHelloAck) {
    return Status::Internal("unexpected Hello reply");
  }
  reply->acked = true;
  return DecodeHelloAck(&dec, &reply->ack);
}

Status DoHello(Socket* conn, uint16_t port, uint32_t stream, uint64_t hash,
               HelloReply* reply, uint32_t version = kProtocolVersion) {
  Result<Socket> connected = ConnectTcp("127.0.0.1", port);
  CLOUDCACHE_RETURN_IF_ERROR(connected.status());
  *conn = std::move(connected).value();
  return Hello(*conn, stream, hash, reply, version);
}

/// A Query exchange's reply: an outcome or a protocol error.
struct QueryReply {
  bool has_outcome = false;
  OutcomeMsg outcome;
  ErrorMsg error;
};

/// Reads the reply to one Query.
Status ReadQueryReply(const Socket& conn, QueryReply* reply) {
  std::vector<uint8_t> payload;
  bool clean_eof = false;
  CLOUDCACHE_RETURN_IF_ERROR(ReadFrame(conn, &payload, &clean_eof));
  if (clean_eof) return Status::IoError("closed mid-stream");
  persist::Decoder dec(payload.data(), payload.size());
  MessageType type = MessageType::kOutcome;
  CLOUDCACHE_RETURN_IF_ERROR(PeekType(&dec, &type));
  if (type == MessageType::kError) {
    reply->has_outcome = false;
    return DecodeError(&dec, &reply->error);
  }
  if (type != MessageType::kOutcome) {
    return Status::Internal("unexpected Query reply");
  }
  reply->has_outcome = true;
  return DecodeOutcome(&dec, &reply->outcome);
}

Status ExchangeQuery(const Socket& conn, const Query& query,
                     QueryReply* reply) {
  persist::Encoder enc;
  EncodeQuery(query, &enc);
  CLOUDCACHE_RETURN_IF_ERROR(WriteFrame(conn, enc));
  return ReadQueryReply(conn, reply);
}

/// The framed bytes of one Query, for tests that write raw bytes.
std::vector<uint8_t> FramedQuery(const Query& query) {
  persist::Encoder enc;
  EncodeQuery(query, &enc);
  std::vector<uint8_t> framed;
  EXPECT_TRUE(AppendFrame(enc, &framed).ok());
  return framed;
}

/// Bounds every recv on `conn`, so a wedged endpoint fails a test
/// instead of hanging it.
void SetReadTimeout(const Socket& conn, std::chrono::seconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count());
  ::setsockopt(conn.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Reads one frame expected to be a StatsAck.
Status ReadStatsAck(const Socket& conn, StatsAckMsg* stats) {
  std::vector<uint8_t> payload;
  bool clean_eof = false;
  CLOUDCACHE_RETURN_IF_ERROR(ReadFrame(conn, &payload, &clean_eof));
  if (clean_eof) return Status::IoError("closed before a StatsAck");
  persist::Decoder dec(payload.data(), payload.size());
  MessageType type = MessageType::kStatsAck;
  CLOUDCACHE_RETURN_IF_ERROR(PeekType(&dec, &type));
  if (type != MessageType::kStatsAck) {
    return Status::Internal(std::string("expected StatsAck, got ") +
                            MessageTypeName(type));
  }
  return DecodeStatsAck(&dec, stats);
}

TEST_F(ServerIntegrationTest, SocketOutcomesMatchExternalDriveReference) {
  const uint64_t kQueries = 400;
  const ExperimentConfig config = ActiveConfig(kQueries, /*tenants=*/1);
  ServerOptions options;
  options.port = 0;
  CloudCachedServer server(catalog_, templates_, &config, options);
  ASSERT_TRUE(server.Start().ok());

  Reference ref = MakeReference(config);
  WorkloadGenerator client_stream(
      catalog_, ref.resolved,
      TenantWorkloadOptions(config.workload, config.tenancy, 0));

  Socket conn;
  HelloReply hello;
  ASSERT_TRUE(
      DoHello(&conn, server.port(), 0, server.config_hash(), &hello).ok());
  ASSERT_TRUE(hello.acked);
  EXPECT_EQ(hello.ack.num_queries, kQueries);
  EXPECT_EQ(hello.ack.next_query_id, 0u);

  for (uint64_t i = 0; i < kQueries; ++i) {
    const Query query = client_stream.Next();
    QueryReply reply;
    ASSERT_TRUE(ExchangeQuery(conn, query, &reply).ok()) << "query " << i;
    ASSERT_TRUE(reply.has_outcome) << "query " << i << ": "
                                   << reply.error.message;
    const ServedQuery expected = ref.sim->ExternalServe(query);
    EXPECT_EQ(reply.outcome.query_id, query.id);
    EXPECT_EQ(reply.outcome.global_index, i);
    EXPECT_EQ(reply.outcome.served, expected.served);
    EXPECT_EQ(reply.outcome.access,
              static_cast<uint8_t>(expected.spec.access));
    EXPECT_EQ(reply.outcome.throttled, expected.throttled);
    EXPECT_EQ(reply.outcome.response_seconds,
              expected.execution.time_seconds);
    EXPECT_EQ(reply.outcome.payment_micros, expected.payment.micros());
    EXPECT_EQ(reply.outcome.profit_micros, expected.profit.micros());
    EXPECT_EQ(reply.outcome.has_budget_case, expected.has_budget_case);
    EXPECT_EQ(reply.outcome.investments, expected.investments);
    EXPECT_EQ(reply.outcome.evictions, expected.evictions);
  }

  // The configured run is now complete: one more query is refused.
  QueryReply over;
  ASSERT_TRUE(ExchangeQuery(conn, client_stream.Next(), &over).ok());
  ASSERT_FALSE(over.has_outcome);
  EXPECT_EQ(over.error.code, ErrorCode::kRunComplete);

  conn.Close();
  server.RequestShutdown();
  ASSERT_TRUE(server.Wait().ok());
  EXPECT_EQ(server.processed(), kQueries);
  ExpectBitIdenticalMetrics(ref.sim->external_metrics(), server.metrics());
}

TEST_F(ServerIntegrationTest, ConcurrentStreamsMatchSerialMergeReference) {
  const uint64_t kQueries = 600;
  const uint32_t kStreams = 3;
  const ExperimentConfig config = ActiveConfig(kQueries, kStreams);
  ServerOptions options;
  options.port = 0;
  CloudCachedServer server(catalog_, templates_, &config, options);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::vector<Query>> plans = DrawPlans(config, kQueries);

  // Claim every stream, then race the three replays; the server's merge
  // gate must serialize service into simulator order.
  std::vector<Socket> conns(kStreams);
  for (uint32_t t = 0; t < kStreams; ++t) {
    HelloReply hello;
    ASSERT_TRUE(DoHello(&conns[t], server.port(), t, server.config_hash(),
                        &hello)
                    .ok());
    ASSERT_TRUE(hello.acked) << "stream " << t;
  }
  std::vector<std::string> failures(kStreams);
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kStreams; ++t) {
    threads.emplace_back([&conns, &plans, &failures, t] {
      for (const Query& query : plans[t]) {
        QueryReply reply;
        const Status status = ExchangeQuery(conns[t], query, &reply);
        if (!status.ok() || !reply.has_outcome) {
          failures[t] = !status.ok() ? status.ToString()
                                     : reply.error.message;
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (uint32_t t = 0; t < kStreams; ++t) {
    EXPECT_EQ(failures[t], "") << "stream " << t;
  }
  for (Socket& conn : conns) conn.Close();
  server.RequestShutdown();
  ASSERT_TRUE(server.Wait().ok());
  EXPECT_EQ(server.processed(), kQueries);

  // Serial reference: merge-drive the identical streams one by one.
  Reference ref = MakeReference(config);
  {
    std::vector<size_t> cursor(kStreams, 0);
    for (uint64_t i = 0; i < kQueries; ++i) {
      size_t head = kStreams;
      for (size_t u = 0; u < kStreams; ++u) {
        if (cursor[u] >= plans[u].size()) continue;
        if (head == kStreams ||
            plans[u][cursor[u]].arrival_time <
                plans[head][cursor[head]].arrival_time) {
          head = u;
        }
      }
      ASSERT_LT(head, kStreams);
      ref.sim->ExternalServe(plans[head][cursor[head]]);
      ++cursor[head];
    }
  }
  ExpectBitIdenticalMetrics(ref.sim->external_metrics(), server.metrics());
  ExpectBitIdenticalTenants(ref.sim->external_metrics(), server.metrics());
}

TEST_F(ServerIntegrationTest, ShutdownSnapshotResumesClassicDriver) {
  const uint64_t kQueries = 1'000;
  const uint64_t kServe = 500;
  const uint32_t kStreams = 2;
  ExperimentConfig config = ActiveConfig(kQueries, kStreams);
  const std::string snapshot =
      ::testing::TempDir() + "/cloudcached_shutdown.snap";

  {
    ServerOptions options;
    options.port = 0;
    options.snapshot_path = snapshot;
    CloudCachedServer server(catalog_, templates_, &config, options);
    ASSERT_TRUE(server.Start().ok());
    const std::vector<std::vector<Query>> plans =
        DrawPlans(config, kServe);
    std::vector<Socket> conns(kStreams);
    for (uint32_t t = 0; t < kStreams; ++t) {
      HelloReply hello;
      ASSERT_TRUE(DoHello(&conns[t], server.port(), t,
                          server.config_hash(), &hello)
                      .ok());
      ASSERT_TRUE(hello.acked);
    }
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < kStreams; ++t) {
      threads.emplace_back([&conns, &plans, t] {
        for (const Query& query : plans[t]) {
          QueryReply reply;
          if (!ExchangeQuery(conns[t], query, &reply).ok() ||
              !reply.has_outcome) {
            return;
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(server.processed(), kServe);
    server.RequestShutdown();
    ASSERT_TRUE(server.Wait().ok());
  }

  // The drained snapshot resumes the classic driver, and the completed
  // run is bit-identical to never having been interrupted.
  const SimMetrics uninterrupted =
      RunExperiment(*catalog_, *templates_, config);
  config.sim.checkpoint.path = snapshot;
  config.sim.checkpoint.restore = CheckpointOptions::Restore::kHard;
  Result<SimMetrics> resumed =
      RunExperimentChecked(*catalog_, *templates_, config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectBitIdenticalMetrics(uninterrupted, *resumed);
  ExpectBitIdenticalTenants(uninterrupted, *resumed);
  std::remove(snapshot.c_str());
}

TEST_F(ServerIntegrationTest, HelloGateRejectsProtocolViolations) {
  const ExperimentConfig config = ActiveConfig(100, /*tenants=*/1);
  ServerOptions options;
  options.port = 0;
  CloudCachedServer server(catalog_, templates_, &config, options);
  ASSERT_TRUE(server.Start().ok());
  const uint64_t hash = server.config_hash();

  {
    Socket conn;
    HelloReply reply;
    ASSERT_TRUE(DoHello(&conn, server.port(), 0, hash, &reply,
                        /*version=*/kProtocolVersion + 7)
                    .ok());
    ASSERT_FALSE(reply.acked);
    EXPECT_EQ(reply.error.code, ErrorCode::kVersionMismatch);
  }
  {
    Socket conn;
    HelloReply reply;
    ASSERT_TRUE(DoHello(&conn, server.port(), 0, hash ^ 1, &reply).ok());
    ASSERT_FALSE(reply.acked);
    EXPECT_EQ(reply.error.code, ErrorCode::kConfigMismatch);
  }
  {
    Socket conn;
    HelloReply reply;
    ASSERT_TRUE(DoHello(&conn, server.port(), 5, hash, &reply).ok());
    ASSERT_FALSE(reply.acked);
    EXPECT_EQ(reply.error.code, ErrorCode::kStreamOutOfRange);
  }
  {
    // First claim holds; a second claim of the same stream is refused,
    // and after the first connection closes the stream is retired — not
    // reclaimable (the merge moved on without it).
    Socket first;
    HelloReply reply;
    ASSERT_TRUE(DoHello(&first, server.port(), 0, hash, &reply).ok());
    ASSERT_TRUE(reply.acked);
    Socket second;
    HelloReply dup;
    ASSERT_TRUE(DoHello(&second, server.port(), 0, hash, &dup).ok());
    ASSERT_FALSE(dup.acked);
    EXPECT_EQ(dup.error.code, ErrorCode::kStreamClaimed);
    first.Close();
    // Wait for the server to observe the close and retire the stream;
    // until its handler finishes cleanup the reply is kStreamClaimed.
    bool retired = false;
    for (int i = 0; i < 100 && !retired; ++i) {
      Socket retry;
      HelloReply again;
      ASSERT_TRUE(DoHello(&retry, server.port(), 0, hash, &again).ok());
      ASSERT_FALSE(again.acked) << "a closed stream was reclaimed";
      if (again.error.code == ErrorCode::kNotAllowed) {
        retired = true;
      } else {
        ASSERT_EQ(again.error.code, ErrorCode::kStreamClaimed);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    EXPECT_TRUE(retired) << "stream 0 never retired after close";
  }
  server.RequestShutdown();
  EXPECT_TRUE(server.Wait().ok());
}

TEST_F(ServerIntegrationTest, DivergedStreamTaintsRunAndRefusesSnapshot) {
  const ExperimentConfig config = ActiveConfig(100, /*tenants=*/1);
  ServerOptions options;
  options.port = 0;
  options.snapshot_path =
      ::testing::TempDir() + "/cloudcached_tainted.snap";
  CloudCachedServer server(catalog_, templates_, &config, options);
  ASSERT_TRUE(server.Start().ok());

  Reference ref = MakeReference(config);
  WorkloadGenerator client_stream(
      catalog_, ref.resolved,
      TenantWorkloadOptions(config.workload, config.tenancy, 0));

  Socket conn;
  HelloReply hello;
  ASSERT_TRUE(
      DoHello(&conn, server.port(), 0, server.config_hash(), &hello).ok());
  ASSERT_TRUE(hello.acked);

  Query tampered = client_stream.Next();
  tampered.id += 1'000'000;  // Not the twin's next query.
  QueryReply reply;
  ASSERT_TRUE(ExchangeQuery(conn, tampered, &reply).ok());
  ASSERT_FALSE(reply.has_outcome);
  EXPECT_EQ(reply.error.code, ErrorCode::kStreamDiverged);

  server.RequestShutdown();
  const Status drained = server.Wait();
  EXPECT_FALSE(drained.ok());
  EXPECT_EQ(drained.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServerIntegrationTest, ControlConnectionServesStatsAndShutdown) {
  const ExperimentConfig config = ActiveConfig(100, /*tenants=*/1);
  ServerOptions options;
  options.port = 0;
  CloudCachedServer server(catalog_, templates_, &config, options);
  ASSERT_TRUE(server.Start().ok());

  Socket conn;
  HelloReply hello;
  ASSERT_TRUE(DoHello(&conn, server.port(), kControlStream,
                      server.config_hash(), &hello)
                  .ok());
  ASSERT_TRUE(hello.acked);
  EXPECT_EQ(hello.ack.stream_id, kControlStream);

  persist::Encoder enc;
  EncodeStats(&enc);
  ASSERT_TRUE(WriteFrame(conn, enc).ok());
  std::vector<uint8_t> payload;
  bool clean_eof = false;
  ASSERT_TRUE(ReadFrame(conn, &payload, &clean_eof).ok());
  ASSERT_FALSE(clean_eof);
  {
    persist::Decoder dec(payload.data(), payload.size());
    MessageType type = MessageType::kStatsAck;
    ASSERT_TRUE(PeekType(&dec, &type).ok());
    ASSERT_EQ(type, MessageType::kStatsAck);
    StatsAckMsg stats;
    ASSERT_TRUE(DecodeStatsAck(&dec, &stats).ok());
    EXPECT_EQ(stats.processed, 0u);
    EXPECT_EQ(stats.num_queries, 100u);
    EXPECT_EQ(stats.active_streams, 0u);
  }

  enc.Clear();
  EncodeShutdown(&enc);
  ASSERT_TRUE(WriteFrame(conn, enc).ok());
  ASSERT_TRUE(ReadFrame(conn, &payload, &clean_eof).ok());
  ASSERT_FALSE(clean_eof);
  {
    persist::Decoder dec(payload.data(), payload.size());
    MessageType type = MessageType::kShutdownAck;
    ASSERT_TRUE(PeekType(&dec, &type).ok());
    EXPECT_EQ(type, MessageType::kShutdownAck);
    ASSERT_TRUE(DecodeShutdownAck(&dec).ok());
  }
  EXPECT_TRUE(server.ShutdownRequested());
  EXPECT_TRUE(server.Wait().ok());
}

TEST_F(ServerIntegrationTest, ShutdownIsRequestedBeforeItsAckArrives) {
  // Regression: the ack used to be written before the drain was flagged,
  // so a client that had read it could still see ShutdownRequested() ==
  // false. Each round is a fresh server, to hit the window on any
  // scheduling. Servers are torn down in batches: a drained server's
  // accept loop takes up to one poll interval to notice, and batching
  // lets those intervals overlap.
  const ExperimentConfig config = ActiveConfig(100, /*tenants=*/1);
  constexpr int kRounds = 200;
  constexpr size_t kBatch = 25;
  std::vector<std::unique_ptr<CloudCachedServer>> drained;
  int late = 0;
  for (int round = 0; round < kRounds; ++round) {
    ServerOptions options;
    options.port = 0;
    drained.push_back(std::make_unique<CloudCachedServer>(
        catalog_, templates_, &config, options));
    CloudCachedServer& server = *drained.back();
    ASSERT_TRUE(server.Start().ok());
    Socket conn;
    HelloReply hello;
    ASSERT_TRUE(DoHello(&conn, server.port(), kControlStream,
                        server.config_hash(), &hello)
                    .ok());
    ASSERT_TRUE(hello.acked);

    persist::Encoder enc;
    EncodeShutdown(&enc);
    ASSERT_TRUE(WriteFrame(conn, enc).ok());
    std::vector<uint8_t> payload;
    bool clean_eof = false;
    ASSERT_TRUE(ReadFrame(conn, &payload, &clean_eof).ok());
    ASSERT_FALSE(clean_eof);
    persist::Decoder dec(payload.data(), payload.size());
    MessageType type = MessageType::kShutdownAck;
    ASSERT_TRUE(PeekType(&dec, &type).ok());
    ASSERT_EQ(type, MessageType::kShutdownAck);
    if (!server.ShutdownRequested()) ++late;
    if (drained.size() == kBatch) drained.clear();
  }
  EXPECT_EQ(late, 0) << late << " of " << kRounds
                     << " acks arrived before the drain was flagged";
}

/// One HTTP/1.0 GET against the metrics port; an empty reply when nothing
/// arrives within `timeout`.
std::string ScrapeMetrics(uint16_t port, std::chrono::seconds timeout) {
  Result<Socket> connected = ConnectTcp("127.0.0.1", port);
  if (!connected.ok()) return "";
  const Socket conn = std::move(connected).value();
  SetReadTimeout(conn, timeout);
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  if (!WriteAll(conn, reinterpret_cast<const uint8_t*>(request.data()),
                request.size())
           .ok()) {
    return "";
  }
  std::string reply;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(conn.fd(), buf, sizeof(buf), 0)) > 0) {
    reply.append(buf, static_cast<size_t>(n));
  }
  return reply;
}

TEST_F(ServerIntegrationTest, IdleMetricsConnectionDoesNotBlockScrapes) {
  // Regression: the endpoint read each request head with a blocking recv
  // on its only thread, so one idle connection starved every scrape.
  const ExperimentConfig config = ActiveConfig(100, /*tenants=*/1);
  ServerOptions options;
  options.port = 0;
  options.metrics_port = 0;
  CloudCachedServer server(catalog_, templates_, &config, options);
  ASSERT_TRUE(server.Start().ok());

  Result<Socket> idle = ConnectTcp("127.0.0.1", server.metrics_port());
  ASSERT_TRUE(idle.ok());
  SetReadTimeout(idle.value(), std::chrono::seconds(2));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::string reply =
      ScrapeMetrics(server.metrics_port(), std::chrono::seconds(5));
  EXPECT_EQ(reply.rfind("HTTP/1.0 200 OK", 0), 0u) << reply;
  EXPECT_NE(reply.find("cloudcache_server_processed_total"),
            std::string::npos);

  // The idle client was answered and dropped, not served forever.
  char byte = 0;
  EXPECT_GT(::recv(idle.value().fd(), &byte, 1, 0), 0);
  idle.value().Close();
  server.RequestShutdown();
  EXPECT_TRUE(server.Wait().ok());
}

TEST_F(ServerIntegrationTest, IdleMetricsConnectionDoesNotBlockShutdown) {
  // Regression: Wait() joins the metrics thread, which sat in a blocking
  // recv on the idle connection until the client went away.
  const ExperimentConfig config = ActiveConfig(100, /*tenants=*/1);
  ServerOptions options;
  options.port = 0;
  options.metrics_port = 0;
  CloudCachedServer server(catalog_, templates_, &config, options);
  ASSERT_TRUE(server.Start().ok());

  Result<Socket> idle = ConnectTcp("127.0.0.1", server.metrics_port());
  ASSERT_TRUE(idle.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.RequestShutdown();
  std::future<Status> waited =
      std::async(std::launch::async, [&server] { return server.Wait(); });
  const bool prompt = waited.wait_for(std::chrono::seconds(3)) ==
                      std::future_status::ready;
  idle.value().Close();  // Frees a wedged server so the test can finish.
  EXPECT_TRUE(prompt) << "Wait() blocked on an idle metrics connection";
  EXPECT_TRUE(waited.get().ok());
}

TEST_F(ServerIntegrationTest, StreamsDoNotHoldAWorker) {
  // Regression: each stream connection held a pool worker for its whole
  // life, blocked at the merge gate, so with one worker the other
  // streams' Hellos queued behind it and the run never started. Streams
  // now leave the pool once their HelloAck is out.
  const uint64_t kQueries = 400;
  const uint32_t kStreams = 4;
  const ExperimentConfig config = ActiveConfig(kQueries, kStreams);
  ServerOptions options;
  options.port = 0;
  options.workers = 1;
  CloudCachedServer server(catalog_, templates_, &config, options);
  ASSERT_TRUE(server.Start().ok());
  const std::vector<std::vector<Query>> plans = DrawPlans(config, kQueries);

  // Connected here, driven on another thread: on a timeout this thread
  // can still kick the sockets and end the test.
  std::vector<Socket> conns(kStreams);
  for (Socket& conn : conns) {
    Result<Socket> connected = ConnectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(connected.ok());
    conn = std::move(connected).value();
  }
  const uint64_t hash = server.config_hash();
  std::future<std::string> driven =
      std::async(std::launch::async, [&conns, &plans, hash] {
        for (uint32_t t = 0; t < kStreams; ++t) {
          HelloReply hello;
          const Status status = Hello(conns[t], t, hash, &hello);
          if (!status.ok() || !hello.acked) {
            return "stream " + std::to_string(t) + " Hello failed";
          }
        }
        std::vector<std::string> failures(kStreams);
        std::vector<std::thread> threads;
        for (uint32_t t = 0; t < kStreams; ++t) {
          threads.emplace_back([&conns, &plans, &failures, t] {
            for (const Query& query : plans[t]) {
              QueryReply reply;
              const Status status = ExchangeQuery(conns[t], query, &reply);
              if (!status.ok() || !reply.has_outcome) {
                failures[t] = "stream " + std::to_string(t) + ": " +
                              (!status.ok() ? status.ToString()
                                            : reply.error.message);
                return;
              }
            }
          });
        }
        std::string failure;
        for (std::thread& thread : threads) thread.join();
        for (const std::string& f : failures) failure += f;
        return failure;
      });
  const bool finished = driven.wait_for(std::chrono::seconds(30)) ==
                        std::future_status::ready;
  if (!finished) {
    for (Socket& conn : conns) conn.ShutdownBoth();
  }
  const std::string failure = driven.get();
  EXPECT_TRUE(finished) << kStreams << " streams on one worker never "
                        << "finished: a stream still holds its worker";
  EXPECT_EQ(failure, "");
  for (Socket& conn : conns) conn.Close();
  server.RequestShutdown();
  ASSERT_TRUE(server.Wait().ok());
  if (finished) {
    EXPECT_EQ(server.processed(), kQueries);
  }
}

TEST_F(ServerIntegrationTest, HalfWrittenQueryBlocksNeitherServiceNorDrain) {
  // A stream that writes half a Query frame and stalls. The event loop
  // never blocks on a read, so the other stream is served for as long as
  // it holds the merge head, a control connection gets Stats, a
  // subscriber gets its pushes, and Shutdown drains promptly.
  const uint64_t kQueries = 2'000;
  const uint32_t kStreams = 2;
  const ExperimentConfig config = ActiveConfig(kQueries, kStreams);
  ServerOptions options;
  options.port = 0;
  CloudCachedServer server(catalog_, templates_, &config, options);
  ASSERT_TRUE(server.Start().ok());
  const uint64_t hash = server.config_hash();

  // The stalled stream is the one whose first query comes second in the
  // merge; the other's queries before it can all be served.
  const std::vector<ResolvedTemplate> resolved =
      ResolveTemplates(*catalog_, *templates_).value();
  std::vector<std::unique_ptr<WorkloadGenerator>> streams;
  for (uint32_t t = 0; t < kStreams; ++t) {
    streams.push_back(std::make_unique<WorkloadGenerator>(
        catalog_, resolved,
        TenantWorkloadOptions(config.workload, config.tenancy, t)));
  }
  const auto peek = [&streams](size_t u) {
    return streams[u]->PeekNextArrival();
  };
  const uint32_t served = static_cast<uint32_t>(MergeHead(kStreams, peek));
  const uint32_t stalled = 1 - served;
  std::vector<Query> leading;
  while (MergeHead(kStreams, peek) == served) {
    leading.push_back(streams[served]->Next());
  }
  ASSERT_LT(leading.size(), kQueries);

  Socket control;
  HelloReply hello;
  ASSERT_TRUE(
      DoHello(&control, server.port(), kControlStream, hash, &hello).ok());
  ASSERT_TRUE(hello.acked);
  SetReadTimeout(control, std::chrono::seconds(5));
  Socket watcher;
  ASSERT_TRUE(
      DoHello(&watcher, server.port(), kControlStream, hash, &hello).ok());
  ASSERT_TRUE(hello.acked);
  SetReadTimeout(watcher, std::chrono::seconds(5));
  persist::Encoder enc;
  StatsSubscribeMsg subscribe;
  subscribe.every = 1;
  EncodeStatsSubscribe(subscribe, &enc);
  ASSERT_TRUE(WriteFrame(watcher, enc).ok());
  StatsAckMsg pushed;
  ASSERT_TRUE(ReadStatsAck(watcher, &pushed).ok());
  EXPECT_EQ(pushed.processed, 0u);

  std::vector<Socket> conns(kStreams);
  for (uint32_t t = 0; t < kStreams; ++t) {
    ASSERT_TRUE(DoHello(&conns[t], server.port(), t, hash, &hello).ok());
    ASSERT_TRUE(hello.acked) << "stream " << t;
    SetReadTimeout(conns[t], std::chrono::seconds(5));
  }
  const std::vector<uint8_t> half = FramedQuery(streams[stalled]->Next());
  ASSERT_TRUE(WriteAll(conns[stalled], half.data(), half.size() / 2).ok());

  for (size_t i = 0; i < leading.size(); ++i) {
    QueryReply reply;
    ASSERT_TRUE(ExchangeQuery(conns[served], leading[i], &reply).ok())
        << "query " << i << " of the live stream went unanswered";
    ASSERT_TRUE(reply.has_outcome) << reply.error.message;
    EXPECT_EQ(reply.outcome.global_index, i);
  }
  while (pushed.processed < leading.size()) {
    ASSERT_TRUE(ReadStatsAck(watcher, &pushed).ok())
        << "no push after " << pushed.processed << " served";
  }

  enc.Clear();
  EncodeStats(&enc);
  ASSERT_TRUE(WriteFrame(control, enc).ok());
  StatsAckMsg stats;
  ASSERT_TRUE(ReadStatsAck(control, &stats).ok());
  EXPECT_EQ(stats.processed, leading.size());
  EXPECT_EQ(stats.active_streams, kStreams);

  enc.Clear();
  EncodeShutdown(&enc);
  ASSERT_TRUE(WriteFrame(control, enc).ok());
  std::vector<uint8_t> payload;
  bool clean_eof = false;
  ASSERT_TRUE(ReadFrame(control, &payload, &clean_eof).ok());
  ASSERT_FALSE(clean_eof);
  std::future<Status> waited =
      std::async(std::launch::async, [&server] { return server.Wait(); });
  const bool prompt = waited.wait_for(std::chrono::seconds(5)) ==
                      std::future_status::ready;
  for (Socket& conn : conns) conn.ShutdownBoth();  // Frees a wedged server.
  EXPECT_TRUE(prompt) << "the drain waited on the half-written frame";
  EXPECT_TRUE(waited.get().ok());
  // The subscriber's stream ends with a final push, then the close.
  Status read = Status::OK();
  while ((read = ReadStatsAck(watcher, &pushed)).ok()) {
  }
  EXPECT_EQ(pushed.processed, leading.size());
}

TEST_F(ServerIntegrationTest, PipelinedQueriesAreAnsweredInOrder) {
  // A client may write several queries before reading: each is parsed
  // only after the previous reply is flushed, and the outcomes come back
  // in order, equal to the external-drive reference.
  const uint64_t kQueries = 300;
  const ExperimentConfig config = ActiveConfig(kQueries, /*tenants=*/1);
  ServerOptions options;
  options.port = 0;
  CloudCachedServer server(catalog_, templates_, &config, options);
  ASSERT_TRUE(server.Start().ok());

  Reference ref = MakeReference(config);
  WorkloadGenerator client_stream(
      catalog_, ref.resolved,
      TenantWorkloadOptions(config.workload, config.tenancy, 0));
  Socket conn;
  HelloReply hello;
  ASSERT_TRUE(
      DoHello(&conn, server.port(), 0, server.config_hash(), &hello).ok());
  ASSERT_TRUE(hello.acked);
  SetReadTimeout(conn, std::chrono::seconds(5));

  uint64_t sent = 0;
  for (size_t batch = 1; sent < kQueries; batch = batch % 17 + 1) {
    const size_t count =
        static_cast<size_t>(std::min<uint64_t>(batch, kQueries - sent));
    std::vector<Query> queries;
    std::vector<uint8_t> wire;
    for (size_t i = 0; i < count; ++i) {
      queries.push_back(client_stream.Next());
      const std::vector<uint8_t> framed = FramedQuery(queries.back());
      wire.insert(wire.end(), framed.begin(), framed.end());
    }
    ASSERT_TRUE(WriteAll(conn, wire.data(), wire.size()).ok());
    for (size_t i = 0; i < count; ++i) {
      QueryReply reply;
      ASSERT_TRUE(ReadQueryReply(conn, &reply).ok()) << "query " << sent;
      ASSERT_TRUE(reply.has_outcome) << reply.error.message;
      const ServedQuery expected = ref.sim->ExternalServe(queries[i]);
      EXPECT_EQ(reply.outcome.query_id, queries[i].id);
      EXPECT_EQ(reply.outcome.global_index, sent);
      EXPECT_EQ(reply.outcome.served, expected.served);
      EXPECT_EQ(reply.outcome.response_seconds,
                expected.execution.time_seconds);
      EXPECT_EQ(reply.outcome.payment_micros, expected.payment.micros());
      EXPECT_EQ(reply.outcome.profit_micros, expected.profit.micros());
      EXPECT_EQ(reply.outcome.investments, expected.investments);
      EXPECT_EQ(reply.outcome.evictions, expected.evictions);
      ++sent;
    }
  }

  conn.Close();
  server.RequestShutdown();
  ASSERT_TRUE(server.Wait().ok());
  EXPECT_EQ(server.processed(), kQueries);
  ExpectBitIdenticalMetrics(ref.sim->external_metrics(), server.metrics());
}

TEST_F(ServerIntegrationTest, MergeHeadHangingUpReleasesTheParkedStreams) {
  // The merge head's stream closes while the others have a query parked.
  // Its retirement moves the head, and the loop must serve the survivors
  // at once — a lost wake-up would leave them parked forever.
  const uint64_t kQueries = 300;
  const uint32_t kStreams = 3;
  const ExperimentConfig config = ActiveConfig(kQueries, kStreams);
  ServerOptions options;
  options.port = 0;
  CloudCachedServer server(catalog_, templates_, &config, options);
  ASSERT_TRUE(server.Start().ok());

  Reference ref = MakeReference(config);
  std::vector<std::unique_ptr<WorkloadGenerator>> streams;
  for (uint32_t t = 0; t < kStreams; ++t) {
    streams.push_back(std::make_unique<WorkloadGenerator>(
        catalog_, ref.resolved,
        TenantWorkloadOptions(config.workload, config.tenancy, t)));
  }
  const size_t head = MergeHead(kStreams, [&streams](size_t u) {
    return streams[u]->PeekNextArrival();
  });

  std::vector<Socket> conns(kStreams);
  for (uint32_t t = 0; t < kStreams; ++t) {
    HelloReply hello;
    ASSERT_TRUE(DoHello(&conns[t], server.port(), t, server.config_hash(),
                        &hello)
                    .ok());
    ASSERT_TRUE(hello.acked);
    SetReadTimeout(conns[t], std::chrono::seconds(5));
  }
  std::vector<Query> firsts(kStreams);
  for (uint32_t t = 0; t < kStreams; ++t) {
    if (t == head) continue;
    firsts[t] = streams[t]->Next();
    const std::vector<uint8_t> framed = FramedQuery(firsts[t]);
    ASSERT_TRUE(WriteAll(conns[t], framed.data(), framed.size()).ok());
  }
  // Give the loop time to park both queries behind the silent head.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(server.processed(), 0u);
  conns[head].Close();

  // The survivors are served in the merge order over the live streams.
  const size_t first = MergeHead(
      kStreams, [&firsts](size_t u) { return firsts[u].arrival_time; },
      [head](size_t u) { return u != head; });
  std::vector<size_t> order = {first};
  for (size_t t = 0; t < kStreams; ++t) {
    if (t != head && t != first) order.push_back(t);
  }
  std::vector<QueryReply> replies(kStreams);
  for (size_t t : order) {
    ASSERT_TRUE(ReadQueryReply(conns[t], &replies[t]).ok())
        << "survivor " << t << " was never served after the head closed";
    ASSERT_TRUE(replies[t].has_outcome) << replies[t].error.message;
  }
  for (size_t i = 0; i < order.size(); ++i) {
    const size_t t = order[i];
    const ServedQuery expected = ref.sim->ExternalServe(firsts[t]);
    EXPECT_EQ(replies[t].outcome.query_id, firsts[t].id);
    EXPECT_EQ(replies[t].outcome.global_index, i);
    EXPECT_EQ(replies[t].outcome.payment_micros, expected.payment.micros());
    EXPECT_EQ(replies[t].outcome.profit_micros, expected.profit.micros());
  }

  for (Socket& conn : conns) conn.Close();
  server.RequestShutdown();
  ASSERT_TRUE(server.Wait().ok());
  EXPECT_EQ(server.processed(), order.size());
}

TEST_F(ServerIntegrationTest, IdleSocketsDoNotDenyHellos) {
  // Regression: a Hello was read with a blocking recv on a pool worker,
  // so one silent socket per worker (four by default) held the whole pool
  // and no later client was ever answered. Each Hello now has a deadline.
  const ExperimentConfig config = ActiveConfig(100, /*tenants=*/1);
  ServerOptions options;
  options.port = 0;
  CloudCachedServer server(catalog_, templates_, &config, options);
  ASSERT_TRUE(server.Start().ok());

  std::vector<Socket> idle(4);
  for (Socket& conn : idle) {
    Result<Socket> connected = ConnectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(connected.ok());
    conn = std::move(connected).value();
    SetReadTimeout(conn, std::chrono::seconds(8));
  }
  // Let the accept loop hand every idle socket to a worker first.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Result<Socket> fifth = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fifth.ok());
  SetReadTimeout(fifth.value(), std::chrono::seconds(8));
  HelloReply hello;
  const Status status =
      Hello(fifth.value(), 0, server.config_hash(), &hello);
  EXPECT_TRUE(status.ok()) << "the fifth client's Hello was never "
                           << "answered: " << status.ToString();
  EXPECT_TRUE(hello.acked) << hello.error.message;
  // The silent sockets were closed by the server, not served forever.
  for (Socket& conn : idle) {
    if (!status.ok()) break;  // Each recv would wait out its timeout.
    char byte = 0;
    EXPECT_EQ(::recv(conn.fd(), &byte, 1, 0), 0);
  }

  for (Socket& conn : idle) conn.Close();
  fifth.value().Close();
  server.RequestShutdown();
  EXPECT_TRUE(server.Wait().ok());
}

TEST_F(ServerIntegrationTest, HalfSentHelloIsClosedAfterTheDeadline) {
  // A client that sends the length prefix and part of its Hello, then
  // stalls, loses the connection at the Hello deadline; the server keeps
  // answering other clients.
  const ExperimentConfig config = ActiveConfig(100, /*tenants=*/1);
  ServerOptions options;
  options.port = 0;
  CloudCachedServer server(catalog_, templates_, &config, options);
  ASSERT_TRUE(server.Start().ok());

  HelloMsg msg;
  msg.protocol_version = kProtocolVersion;
  msg.stream_id = 0;
  msg.config_hash = server.config_hash();
  persist::Encoder enc;
  EncodeHello(msg, &enc);
  std::vector<uint8_t> framed;
  ASSERT_TRUE(AppendFrame(enc, &framed).ok());
  Result<Socket> stalled = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(stalled.ok());
  SetReadTimeout(stalled.value(), std::chrono::seconds(8));
  const size_t half = framed.size() / 2;
  ASSERT_GT(half, 4u);
  ASSERT_TRUE(WriteAll(stalled.value(), framed.data(), half).ok());

  const auto start = std::chrono::steady_clock::now();
  char byte = 0;
  const ssize_t got = ::recv(stalled.value().fd(), &byte, 1, 0);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(got, 0) << "the half-sent Hello was never closed";
  EXPECT_LT(waited, std::chrono::seconds(8));

  // The stream the stalled client meant to claim is still free.
  Socket conn;
  HelloReply hello;
  ASSERT_TRUE(DoHello(&conn, server.port(), 0, server.config_hash(), &hello)
                  .ok());
  EXPECT_TRUE(hello.acked) << hello.error.message;

  stalled.value().Close();
  conn.Close();
  server.RequestShutdown();
  EXPECT_TRUE(server.Wait().ok());
}

TEST_F(ServerIntegrationTest, HelloDeadlineEndsAtTheAck) {
  // The Hello deadline bounds the handshake only: a stream that waits
  // past it before its first query is still served.
  const uint64_t kQueries = 3;
  const ExperimentConfig config = ActiveConfig(kQueries, /*tenants=*/1);
  ServerOptions options;
  options.port = 0;
  CloudCachedServer server(catalog_, templates_, &config, options);
  ASSERT_TRUE(server.Start().ok());
  const std::vector<std::vector<Query>> plans = DrawPlans(config, kQueries);

  Socket conn;
  HelloReply hello;
  ASSERT_TRUE(DoHello(&conn, server.port(), 0, server.config_hash(), &hello)
                  .ok());
  ASSERT_TRUE(hello.acked) << hello.error.message;
  SetReadTimeout(conn, std::chrono::seconds(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(2500));
  for (const Query& query : plans[0]) {
    QueryReply reply;
    ASSERT_TRUE(ExchangeQuery(conn, query, &reply).ok());
    EXPECT_TRUE(reply.has_outcome) << reply.error.message;
  }

  conn.Close();
  server.RequestShutdown();
  ASSERT_TRUE(server.Wait().ok());
  EXPECT_EQ(server.processed(), kQueries);
}

}  // namespace
}  // namespace cloudcache::server
