// loadgen — replay WorkloadGenerator streams against cloudcached over N
// concurrent connections and report aggregate throughput (docs/server.md).
//
// The client reconstructs the server's workload from the same shared
// flags (the server checks the config hash at Hello time), claims one
// connection per stream, and sends each stream's queries closed-loop.
// The merged send order across connections is the server's concern — its
// merge gate serializes service into simulator order regardless of how
// the connections race.
//
// Exit codes: 0 = success; 1 = connection/protocol/server error;
// 2 = flag errors.
//
// Examples:
//   loadgen --port=4909 --count=10000
//   loadgen --port-file=port.txt --tenants=4 --count=2000 --shutdown
//   loadgen --port=4909 --stats   (probe a running server and exit)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/server/protocol.h"
#include "src/server/socket_io.h"
#include "src/sim/experiment.h"
#include "src/sim/merge.h"
#include "src/util/status.h"
#include "tools/experiment_flags.h"

namespace {

using namespace cloudcache;
using tools::ExperimentFlags;
using tools::FlagParse;
using tools::FlagValue;
using tools::NumericFlag;

struct Args {
  ExperimentFlags exp;  // Shared experiment surface (config-hash parity).
  std::string host = "127.0.0.1";
  uint16_t port = server::kDefaultPort;
  std::string port_file;  // Read the port from this file instead.
  uint64_t count = 0;     // Merged queries to send; 0 = run to completion.
  bool shutdown = false;  // Send Shutdown once the streams finish.
  bool stats = false;     // Probe Stats and exit (no workload).
  uint64_t watch = 0;     // Subscribe and print acks every N (0 = off).
  bool config_check = true;  // Send our config hash in Hello.
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [flags]\n"
      "%s"
      "  --host=ADDR           server address (127.0.0.1)\n"
      "  --port=N              server port (4909)\n"
      "  --port-file=PATH      read the port from this file (cloudcached\n"
      "                        --port-file writes it)\n"
      "  --count=K             merged queries to send across all streams\n"
      "                        (0 = drive the configured run to completion)\n"
      "  --shutdown            request graceful server shutdown at the end\n"
      "  --stats               print server stats and exit\n"
      "  --watch[=N]           subscribe to server stats and print a\n"
      "                        snapshot every N served queries (1000)\n"
      "                        until the run completes or the server\n"
      "                        drains\n"
      "  --no-config-check     skip the Hello config-hash cross-check\n",
      argv0, tools::ExperimentFlagsUsage());
}

std::optional<Args> Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const FlagParse shared = tools::ParseExperimentFlag(argv[i], &args.exp);
    if (shared == FlagParse::kConsumed) continue;
    if (shared == FlagParse::kError) return std::nullopt;
    const FlagParse numeric = tools::FirstMatch({
        NumericFlag(argv[i], "--port", &args.port),
        NumericFlag(argv[i], "--count", &args.count),
    });
    if (numeric == FlagParse::kConsumed) continue;
    if (numeric == FlagParse::kError) return std::nullopt;
    std::string v;
    if (FlagValue(argv[i], "--host", &v)) args.host = v;
    else if (FlagValue(argv[i], "--port-file", &v)) args.port_file = v;
    else if (std::strcmp(argv[i], "--shutdown") == 0) args.shutdown = true;
    else if (std::strcmp(argv[i], "--stats") == 0) args.stats = true;
    else if (std::strcmp(argv[i], "--watch") == 0) args.watch = 1000;
    else if (FlagValue(argv[i], "--watch", &v)) {
      if (!tools::ParseNumber(v, &args.watch) || args.watch == 0) {
        std::fprintf(stderr, "--watch wants a cadence >= 1\n");
        return std::nullopt;
      }
    }
    else if (std::strcmp(argv[i], "--no-config-check") == 0)
      args.config_check = false;
    else {
      Usage(argv[0]);
      return std::nullopt;
    }
  }
  return args;
}

/// One Hello/HelloAck exchange; `*conn` is connected on success.
Status Handshake(const Args& args, uint32_t stream_id, uint64_t config_hash,
                 server::Socket* conn, server::HelloAckMsg* ack) {
  Result<server::Socket> connected =
      server::ConnectTcp(args.host, args.port);
  CLOUDCACHE_RETURN_IF_ERROR(connected.status());
  *conn = std::move(connected).value();

  server::HelloMsg hello;
  hello.stream_id = stream_id;
  hello.config_hash = args.config_check ? config_hash : 0;
  persist::Encoder enc;
  server::EncodeHello(hello, &enc);
  CLOUDCACHE_RETURN_IF_ERROR(server::WriteFrame(*conn, enc));

  std::vector<uint8_t> payload;
  bool clean_eof = false;
  CLOUDCACHE_RETURN_IF_ERROR(
      server::ReadFrame(*conn, &payload, &clean_eof));
  if (clean_eof) {
    return Status::IoError("server closed during the Hello handshake");
  }
  persist::Decoder dec(payload.data(), payload.size());
  server::MessageType type = server::MessageType::kHelloAck;
  CLOUDCACHE_RETURN_IF_ERROR(server::PeekType(&dec, &type));
  if (type == server::MessageType::kError) {
    server::ErrorMsg error;
    CLOUDCACHE_RETURN_IF_ERROR(server::DecodeError(&dec, &error));
    return Status::FailedPrecondition(
        std::string("server refused the connection: ") +
        server::ErrorCodeName(error.code) + ": " + error.message);
  }
  if (type != server::MessageType::kHelloAck) {
    return Status::Internal("unexpected reply to Hello");
  }
  return server::DecodeHelloAck(&dec, ack);
}

/// Outcome of one stream's replay thread.
struct StreamResult {
  uint64_t outcomes = 0;
  Status status = Status::OK();
  bool run_complete = false;  // Stopped on the server's kRunComplete.
};

/// Sends `queries` closed-loop on an already-claimed stream connection.
void ReplayStream(const server::Socket& conn,
                  const std::vector<Query>& queries, StreamResult* out) {
  std::vector<uint8_t> payload;
  for (const Query& query : queries) {
    persist::Encoder enc;
    server::EncodeQuery(query, &enc);
    Status status = server::WriteFrame(conn, enc);
    if (!status.ok()) {
      out->status = status;
      return;
    }
    bool clean_eof = false;
    status = server::ReadFrame(conn, &payload, &clean_eof);
    if (!status.ok() || clean_eof) {
      out->status = clean_eof
                        ? Status::IoError("server closed mid-stream")
                        : status;
      return;
    }
    persist::Decoder dec(payload.data(), payload.size());
    server::MessageType type = server::MessageType::kOutcome;
    status = server::PeekType(&dec, &type);
    if (status.ok() && type == server::MessageType::kError) {
      server::ErrorMsg error;
      status = server::DecodeError(&dec, &error);
      if (status.ok()) {
        if (error.code == server::ErrorCode::kRunComplete) {
          out->run_complete = true;
          return;
        }
        if (error.code == server::ErrorCode::kShuttingDown) return;
        status = Status::FailedPrecondition(
            std::string("server error: ") +
            server::ErrorCodeName(error.code) + ": " + error.message);
      }
    } else if (status.ok() && type != server::MessageType::kOutcome) {
      status = Status::Internal("unexpected reply to Query");
    } else if (status.ok()) {
      server::OutcomeMsg outcome;
      status = server::DecodeOutcome(&dec, &outcome);
      if (status.ok() && outcome.query_id != query.id) {
        status = Status::Internal("outcome answers a different query");
      }
    }
    if (!status.ok()) {
      out->status = status;
      return;
    }
    ++out->outcomes;
  }
}

/// Renders one StatsAck snapshot: aggregate line, economy counters, and
/// one line per stream.
void PrintStats(const server::StatsAckMsg& stats) {
  std::printf(
      "processed %llu/%llu (served %llu, in-cache %llu), %u active "
      "stream(s), credit $%.2f\n",
      static_cast<unsigned long long>(stats.processed),
      static_cast<unsigned long long>(stats.num_queries),
      static_cast<unsigned long long>(stats.served),
      static_cast<unsigned long long>(stats.served_in_cache),
      stats.active_streams,
      static_cast<double>(stats.credit_micros) / 1e6);
  std::printf(
      "  economy: %llu investment(s), %llu eviction(s), %llu throttled\n",
      static_cast<unsigned long long>(stats.investments),
      static_cast<unsigned long long>(stats.evictions),
      static_cast<unsigned long long>(stats.throttled));
  for (const server::StreamStatsMsg& stream : stats.streams) {
    std::printf("  stream %u: %llu queries, %llu served, %llu throttled\n",
                stream.stream,
                static_cast<unsigned long long>(stream.queries),
                static_cast<unsigned long long>(stream.served),
                static_cast<unsigned long long>(stream.throttled));
  }
}

int RunStats(const Args& args, uint64_t config_hash) {
  server::Socket conn;
  server::HelloAckMsg ack;
  Status status =
      Handshake(args, server::kControlStream, config_hash, &conn, &ack);
  if (status.ok()) {
    persist::Encoder enc;
    server::EncodeStats(&enc);
    status = server::WriteFrame(conn, enc);
  }
  std::vector<uint8_t> payload;
  bool clean_eof = false;
  if (status.ok()) status = server::ReadFrame(conn, &payload, &clean_eof);
  if (status.ok() && clean_eof) {
    status = Status::IoError("server closed before answering Stats");
  }
  server::StatsAckMsg stats;
  if (status.ok()) {
    persist::Decoder dec(payload.data(), payload.size());
    server::MessageType type = server::MessageType::kStatsAck;
    status = server::PeekType(&dec, &type);
    if (status.ok() && type != server::MessageType::kStatsAck) {
      status = Status::Internal("unexpected reply to Stats");
    }
    if (status.ok()) status = server::DecodeStatsAck(&dec, &stats);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", status.ToString().c_str());
    return 1;
  }
  PrintStats(stats);
  return 0;
}

/// Subscribes on a control connection and prints every pushed StatsAck
/// until the server sends the final one (run complete or drain) and
/// closes.
int RunWatch(const Args& args, uint64_t config_hash) {
  server::Socket conn;
  server::HelloAckMsg ack;
  Status status =
      Handshake(args, server::kControlStream, config_hash, &conn, &ack);
  if (status.ok()) {
    server::StatsSubscribeMsg sub;
    sub.every = args.watch;
    persist::Encoder enc;
    server::EncodeStatsSubscribe(sub, &enc);
    status = server::WriteFrame(conn, enc);
  }
  std::vector<uint8_t> payload;
  while (status.ok()) {
    bool clean_eof = false;
    status = server::ReadFrame(conn, &payload, &clean_eof);
    if (!status.ok() || clean_eof) break;
    persist::Decoder dec(payload.data(), payload.size());
    server::MessageType type = server::MessageType::kStatsAck;
    status = server::PeekType(&dec, &type);
    if (status.ok() && type == server::MessageType::kError) {
      server::ErrorMsg error;
      status = server::DecodeError(&dec, &error);
      if (status.ok()) {
        status = Status::FailedPrecondition(
            std::string("server error: ") +
            server::ErrorCodeName(error.code) + ": " + error.message);
      }
      break;
    }
    if (status.ok() && type != server::MessageType::kStatsAck) {
      status = Status::Internal("unexpected frame on the subscription");
      break;
    }
    server::StatsAckMsg stats;
    if (status.ok()) status = server::DecodeStatsAck(&dec, &stats);
    if (status.ok()) PrintStats(stats);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

int RequestServerShutdown(const Args& args, uint64_t config_hash) {
  server::Socket conn;
  server::HelloAckMsg ack;
  Status status =
      Handshake(args, server::kControlStream, config_hash, &conn, &ack);
  if (status.ok()) {
    persist::Encoder enc;
    server::EncodeShutdown(&enc);
    status = server::WriteFrame(conn, enc);
  }
  std::vector<uint8_t> payload;
  bool clean_eof = false;
  if (status.ok()) status = server::ReadFrame(conn, &payload, &clean_eof);
  if (!status.ok()) {
    std::fprintf(stderr, "loadgen: shutdown request failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "loadgen: server shutdown requested\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> parsed = Parse(argc, argv);
  if (!parsed) return 2;
  Args& args = *parsed;
  const Status valid = tools::ValidateExperimentFlags(args.exp);
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 2;
  }
  if (!args.port_file.empty()) {
    std::ifstream in(args.port_file);
    unsigned port = 0;
    if (!(in >> port) || port == 0 || port > 65535) {
      std::fprintf(stderr, "loadgen: no usable port in %s\n",
                   args.port_file.c_str());
      return 2;
    }
    args.port = static_cast<uint16_t>(port);
  }

  Catalog catalog;
  std::vector<QueryTemplate> templates;
  const Status made =
      tools::MakeExperimentCatalog(args.exp, &catalog, &templates);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.ToString().c_str());
    return 2;
  }
  Result<ExperimentConfig> built =
      tools::MakeExperimentFlagsConfig(args.exp);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 2;
  }
  const ExperimentConfig config = std::move(built).value();
  const uint64_t config_hash = HashExperimentConfig(config);

  if (args.stats) return RunStats(args, config_hash);
  if (args.watch > 0) return RunWatch(args, config_hash);

  Result<std::vector<ResolvedTemplate>> resolved =
      ResolveTemplates(catalog, templates);
  if (!resolved.ok()) {
    std::fprintf(stderr, "%s\n", resolved.status().ToString().c_str());
    return 1;
  }

  // Claim every stream up front: the server's merge gate only opens once
  // all configured streams have connected, and the HelloAck tells us how
  // far each server-side generator already advanced (after a restore).
  const uint32_t streams = config.tenancy.tenants;
  std::vector<server::Socket> conns(streams);
  std::vector<server::HelloAckMsg> acks(streams);
  for (uint32_t t = 0; t < streams; ++t) {
    const Status status =
        Handshake(args, t, config_hash, &conns[t], &acks[t]);
    if (!status.ok()) {
      std::fprintf(stderr, "loadgen: stream %u: %s\n", t,
                   status.ToString().c_str());
      return 1;
    }
  }

  // Rebuild the per-stream generators, fast-forward them to the server's
  // positions, and pre-draw each stream's share of the next K merged
  // queries in MergeHead order (the simulator's merge rule, so K counts
  // queries in served order).
  std::vector<std::unique_ptr<WorkloadGenerator>> generators =
      MakeExperimentStreams(catalog, *resolved, config);
  uint64_t already = 0;
  for (uint32_t t = 0; t < streams; ++t) {
    for (uint64_t i = 0; i < acks[t].next_query_id; ++i) {
      generators[t]->Next();
    }
    already += acks[t].next_query_id;
  }
  const uint64_t remaining =
      acks[0].num_queries > already ? acks[0].num_queries - already : 0;
  const uint64_t to_send =
      args.count == 0 ? remaining : std::min(args.count, remaining);
  std::vector<std::vector<Query>> plans(streams);
  for (uint64_t i = 0; i < to_send; ++i) {
    const size_t head = MergeHead(streams, [&generators](size_t u) {
      return generators[u]->PeekNextArrival();
    });
    plans[head].push_back(generators[head]->Next());
  }

  std::vector<StreamResult> results(streams);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(streams);
  for (uint32_t t = 0; t < streams; ++t) {
    threads.emplace_back([&conns, &plans, &results, t] {
      ReplayStream(conns[t], plans[t], &results[t]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();

  uint64_t outcomes = 0;
  bool failed = false;
  for (uint32_t t = 0; t < streams; ++t) {
    outcomes += results[t].outcomes;
    if (!results[t].status.ok()) {
      std::fprintf(stderr, "loadgen: stream %u: %s\n", t,
                   results[t].status.ToString().c_str());
      failed = true;
    }
  }
  std::printf(
      "sent %llu queries over %u connection(s) in %.3f s — %.0f qps\n",
      static_cast<unsigned long long>(outcomes), streams, seconds,
      seconds > 0 ? static_cast<double>(outcomes) / seconds : 0.0);
  for (server::Socket& conn : conns) conn.Close();

  int exit_code = failed ? 1 : 0;
  if (args.shutdown) {
    const int shutdown_code = RequestServerShutdown(args, config_hash);
    if (exit_code == 0) exit_code = shutdown_code;
  }
  return exit_code;
}
