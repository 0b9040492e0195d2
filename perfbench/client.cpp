// perfbench_client — the benchmark's closed-loop cloudcached client.
//
// One process and one thread, one connection per workload stream
// (= tenant), each stream sending its queries closed-loop over loopback,
// with the same Hello config-hash check as loadgen. Unlike loadgen it
// times every round trip and checks every outcome: each OutcomeMsg must
// equal what the in-process Simulator serves at the same config and
// merged index (server == simulator). At the end it requests a graceful
// shutdown.
//
// Two modes:
//   perfbench_client [experiment flags] --reference-out=R --metrics-json=M
//       serve the whole run in-process through Simulator's external drive
//       surface and write the expected outcomes to R and the run's
//       metrics (SimMetrics as cloudcache_sim exports them) to M;
//   perfbench_client [experiment flags] --reference=R --port-file=P
//       --result-json=J [--split]
//       drive the server on the port in P and write the per-query round
//       trips, failure counts and (with --split) the encode / write /
//       wait / decode split to J.
//
// Exit codes: 0 = success (failures are reported in J, not by exit code);
// 1 = setup or I/O error before the run; 2 = flag errors.

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/registry.h"
#include "src/server/protocol.h"
#include "src/server/socket_io.h"
#include "src/sim/experiment.h"
#include "src/sim/simulator.h"
#include "src/structure/index_advisor.h"
#include "tools/experiment_flags.h"

namespace {

using namespace cloudcache;
using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Args {
  tools::ExperimentFlags exp;
  std::string reference_out;
  std::string metrics_json;
  std::string reference;
  std::string port_file;
  std::string result_json;
  bool split = false;
};

std::optional<Args> Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const tools::FlagParse shared =
        tools::ParseExperimentFlag(argv[i], &args.exp);
    if (shared == tools::FlagParse::kConsumed) continue;
    if (shared == tools::FlagParse::kError) return std::nullopt;
    std::string v;
    if (tools::FlagValue(argv[i], "--reference-out", &v)) {
      args.reference_out = v;
    } else if (tools::FlagValue(argv[i], "--metrics-json", &v)) {
      args.metrics_json = v;
    } else if (tools::FlagValue(argv[i], "--reference", &v)) {
      args.reference = v;
    } else if (tools::FlagValue(argv[i], "--port-file", &v)) {
      args.port_file = v;
    } else if (tools::FlagValue(argv[i], "--result-json", &v)) {
      args.result_json = v;
    } else if (std::strcmp(argv[i], "--split") == 0) {
      args.split = true;
    } else {
      std::fprintf(stderr, "perfbench_client: unknown flag %s\n", argv[i]);
      return std::nullopt;
    }
  }
  const bool reference_mode = !args.reference_out.empty();
  const bool drive_mode = !args.reference.empty();
  if (reference_mode == drive_mode ||
      (reference_mode && args.metrics_json.empty()) ||
      (drive_mode && (args.port_file.empty() || args.result_json.empty()))) {
    std::fprintf(stderr,
                 "perfbench_client: give either --reference-out and "
                 "--metrics-json, or --reference, --port-file and "
                 "--result-json\n");
    return std::nullopt;
  }
  return args;
}

server::OutcomeMsg ToOutcome(const Query& query, uint64_t index,
                             const ServedQuery& served) {
  server::OutcomeMsg outcome;
  outcome.query_id = query.id;
  outcome.global_index = index;
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
  return outcome;
}

/// Field-by-field, bit-exact comparison (doubles compare by value; the
/// codec round-trips them bit for bit).
bool SameOutcome(const server::OutcomeMsg& a, const server::OutcomeMsg& b) {
  return a.query_id == b.query_id && a.global_index == b.global_index &&
         a.served == b.served && a.access == b.access &&
         a.throttled == b.throttled &&
         a.response_seconds == b.response_seconds &&
         a.payment_micros == b.payment_micros &&
         a.profit_micros == b.profit_micros &&
         a.has_budget_case == b.has_budget_case &&
         a.budget_case == b.budget_case &&
         a.investments == b.investments && a.evictions == b.evictions;
}

/// The per-stream generators of the configured run, in tenant order.
std::vector<std::unique_ptr<WorkloadGenerator>> MakeGenerators(
    const Catalog& catalog, const std::vector<ResolvedTemplate>& resolved,
    const ExperimentConfig& config) {
  std::vector<std::unique_ptr<WorkloadGenerator>> generators;
  for (uint32_t t = 0; t < config.tenancy.tenants; ++t) {
    generators.push_back(std::make_unique<WorkloadGenerator>(
        &catalog, resolved,
        TenantWorkloadOptions(config.workload, config.tenancy, t)));
  }
  return generators;
}

/// Index of the stream whose next query the merge serves next (earliest
/// arrival, ties to the lowest stream — the simulator's merge rule).
size_t MergeHead(
    const std::vector<std::unique_ptr<WorkloadGenerator>>& generators) {
  size_t head = 0;
  for (size_t u = 1; u < generators.size(); ++u) {
    if (generators[u]->PeekNextArrival() <
        generators[head]->PeekNextArrival()) {
      head = u;
    }
  }
  return head;
}

/// Serves the whole configured run in-process, in the server's merge
/// order, through the same external drive surface cloudcached uses.
int WriteReference(const Args& args, const Catalog& catalog,
                   const std::vector<ResolvedTemplate>& resolved,
                   const ExperimentConfig& config) {
  const std::vector<StructureKey> indexes =
      RecommendIndexes(catalog, resolved, config.index_candidates);
  std::unique_ptr<Scheme> scheme =
      MakeExperimentScheme(catalog, indexes, config);
  std::vector<std::unique_ptr<WorkloadGenerator>> generators =
      MakeGenerators(catalog, resolved, config);
  std::vector<WorkloadGenerator*> pointers;
  for (auto& generator : generators) pointers.push_back(generator.get());
  SimulatorOptions options = config.sim;
  options.node_rent_multiplier = config.cluster.node_rent_multiplier;
  options.checkpoint.config_hash = HashExperimentConfig(config);
  Simulator simulator(&catalog, scheme.get(), pointers, options);
  simulator.ExternalBegin();

  // One length-prefixed Outcome payload per merged index.
  persist::Encoder enc;
  persist::Encoder payload;
  for (uint64_t i = 0; i < config.sim.num_queries; ++i) {
    const Query query = generators[MergeHead(generators)]->Next();
    payload.Clear();
    server::EncodeOutcome(
        ToOutcome(query, i, simulator.ExternalServe(query)), &payload);
    enc.PutU32(static_cast<uint32_t>(payload.size()));
    enc.PutBytes(payload.buffer().data(), payload.size());
  }
  std::ofstream out(args.reference_out, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(enc.buffer().data()),
            static_cast<std::streamsize>(enc.size()));
  obs::Registry registry;
  obs::FillFromSimMetrics(simulator.external_metrics(), &registry);
  std::ofstream metrics(args.metrics_json, std::ios::binary | std::ios::trunc);
  metrics << registry.RenderJson();
  if (!out || !metrics) {
    std::fprintf(stderr, "perfbench_client: cannot write the reference\n");
    return 1;
  }
  return 0;
}

Status ReadReference(const std::string& path,
                     std::vector<server::OutcomeMsg>* expected) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  expected->clear();
  size_t offset = 0;
  while (offset < bytes.size()) {
    uint32_t size = 0;
    persist::Decoder prefix(bytes.data() + offset, bytes.size() - offset);
    CLOUDCACHE_RETURN_IF_ERROR(prefix.ReadU32(&size));
    offset += 4;
    if (size > bytes.size() - offset) {
      return Status::InvalidArgument("truncated reference");
    }
    persist::Decoder dec(bytes.data() + offset, size);
    server::MessageType type = server::MessageType::kOutcome;
    server::OutcomeMsg outcome;
    CLOUDCACHE_RETURN_IF_ERROR(server::PeekType(&dec, &type));
    CLOUDCACHE_RETURN_IF_ERROR(server::DecodeOutcome(&dec, &outcome));
    expected->push_back(outcome);
    offset += size;
  }
  return Status::OK();
}

/// Reads one frame and returns its decoder-ready payload type.
Status ReadReply(const server::Socket& conn, std::vector<uint8_t>* payload,
                 server::MessageType* type) {
  bool clean_eof = false;
  CLOUDCACHE_RETURN_IF_ERROR(server::ReadFrame(conn, payload, &clean_eof));
  if (clean_eof) return Status::IoError("server closed the connection");
  persist::Decoder dec(payload->data(), payload->size());
  return server::PeekType(&dec, type);
}

Status Handshake(uint16_t port, uint32_t stream_id, uint64_t config_hash,
                 server::Socket* conn) {
  Result<server::Socket> connected = server::ConnectTcp("127.0.0.1", port);
  CLOUDCACHE_RETURN_IF_ERROR(connected.status());
  *conn = std::move(connected).value();
  server::HelloMsg hello;
  hello.stream_id = stream_id;
  hello.config_hash = config_hash;
  persist::Encoder enc;
  server::EncodeHello(hello, &enc);
  CLOUDCACHE_RETURN_IF_ERROR(server::WriteFrame(*conn, enc));
  std::vector<uint8_t> payload;
  server::MessageType type = server::MessageType::kHelloAck;
  CLOUDCACHE_RETURN_IF_ERROR(ReadReply(*conn, &payload, &type));
  if (type != server::MessageType::kHelloAck) {
    return Status::FailedPrecondition("server refused the Hello");
  }
  persist::Decoder dec(payload.data() + 1, payload.size() - 1);
  server::HelloAckMsg ack;
  CLOUDCACHE_RETURN_IF_ERROR(server::DecodeHelloAck(&dec, &ack));
  if (ack.config_hash != config_hash || ack.next_query_id != 0) {
    return Status::FailedPrecondition(
        "server runs another config or a restored run");
  }
  return Status::OK();
}

/// One stream's closed-loop position and measurements.
struct StreamRun {
  std::vector<Query> queries;
  size_t next = 0;  // The query in flight (or the next to send).
  int64_t sent_at = 0;
  int64_t written_at = 0;
  std::vector<int64_t> rtt_ns;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  int64_t encode_ns = 0;
  int64_t write_ns = 0;
  int64_t wait_ns = 0;
  int64_t decode_ns = 0;
  std::string error;
};

Status SendNext(const server::Socket& conn, bool split, StreamRun* run,
                persist::Encoder* enc) {
  run->sent_at = NowNs();
  enc->Clear();
  server::EncodeQuery(run->queries[run->next], enc);
  const int64_t encoded = split ? NowNs() : 0;
  const Status status = server::WriteFrame(conn, *enc);
  if (split) {
    run->written_at = NowNs();
    run->encode_ns += encoded - run->sent_at;
    run->write_ns += run->written_at - encoded;
  }
  return status;
}

/// Reads the reply to the stream's query in flight and checks it against
/// the in-process reference.
Status Receive(const server::Socket& conn,
               const std::vector<server::OutcomeMsg>& expected, bool split,
               StreamRun* run, std::vector<uint8_t>* payload) {
  bool clean_eof = false;
  CLOUDCACHE_RETURN_IF_ERROR(server::ReadFrame(conn, payload, &clean_eof));
  if (clean_eof) return Status::IoError("server closed mid-stream");
  const int64_t replied = split ? NowNs() : 0;
  persist::Decoder dec(payload->data(), payload->size());
  server::MessageType type = server::MessageType::kOutcome;
  CLOUDCACHE_RETURN_IF_ERROR(server::PeekType(&dec, &type));
  if (type != server::MessageType::kOutcome) {
    return Status::FailedPrecondition(std::string("server answered ") +
                                      server::MessageTypeName(type));
  }
  server::OutcomeMsg outcome;
  CLOUDCACHE_RETURN_IF_ERROR(server::DecodeOutcome(&dec, &outcome));
  const int64_t end = NowNs();
  run->rtt_ns.push_back(end - run->sent_at);
  if (split) {
    run->wait_ns += replied - run->written_at;
    run->decode_ns += end - replied;
  }
  if (outcome.global_index >= expected.size() ||
      !SameOutcome(outcome, expected[outcome.global_index]) ||
      outcome.query_id != run->queries[run->next].id) {
    ++run->mismatched;
    ++run->failed;
  }
  ++run->next;
  return Status::OK();
}

/// Drives every stream closed-loop from this one thread: each stream
/// sends its next query as soon as its previous reply is in. One thread
/// keeps the client's own scheduling out of the server's way on a small
/// host.
void ReplayAll(const std::vector<server::Socket>& conns,
               const std::vector<server::OutcomeMsg>& expected, bool split,
               std::vector<StreamRun>* runs) {
  std::vector<pollfd> fds(conns.size());
  std::vector<uint8_t> payload;
  persist::Encoder enc;
  size_t active = 0;
  const auto retire = [&](size_t t, const Status& status) {
    StreamRun& run = (*runs)[t];
    if (!status.ok()) {
      // This query and every unsent one failed.
      run.error = status.ToString();
      run.failed += run.queries.size() - run.next;
    }
    fds[t].fd = -1;
    --active;
  };
  for (size_t t = 0; t < conns.size(); ++t) {
    fds[t] = {conns[t].fd(), POLLIN, 0};
    (*runs)[t].rtt_ns.reserve((*runs)[t].queries.size());
    ++active;
    if ((*runs)[t].queries.empty()) {
      retire(t, Status::OK());
      continue;
    }
    const Status sent = SendNext(conns[t], split, &(*runs)[t], &enc);
    if (!sent.ok()) retire(t, sent);
  }
  while (active > 0) {
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      const Status failed = Status::IoError("poll failed");
      for (size_t t = 0; t < fds.size(); ++t) {
        if (fds[t].fd >= 0) retire(t, failed);
      }
      return;
    }
    for (size_t t = 0; t < fds.size(); ++t) {
      if (fds[t].fd < 0 || fds[t].revents == 0) continue;
      StreamRun& run = (*runs)[t];
      Status status = Receive(conns[t], expected, split, &run, &payload);
      if (status.ok() && run.next == run.queries.size()) {
        retire(t, Status::OK());
        continue;
      }
      if (status.ok()) status = SendNext(conns[t], split, &run, &enc);
      if (!status.ok()) retire(t, status);
    }
  }
}

Status RequestShutdown(uint16_t port, uint64_t config_hash) {
  server::Socket conn;
  CLOUDCACHE_RETURN_IF_ERROR(
      Handshake(port, server::kControlStream, config_hash, &conn));
  persist::Encoder enc;
  server::EncodeShutdown(&enc);
  CLOUDCACHE_RETURN_IF_ERROR(server::WriteFrame(conn, enc));
  std::vector<uint8_t> payload;
  server::MessageType type = server::MessageType::kShutdownAck;
  return ReadReply(conn, &payload, &type);
}

int Drive(const Args& args, const Catalog& catalog,
          const std::vector<ResolvedTemplate>& resolved,
          const ExperimentConfig& config) {
  std::vector<server::OutcomeMsg> expected;
  const Status loaded = ReadReference(args.reference, &expected);
  if (!loaded.ok() || expected.size() != config.sim.num_queries) {
    std::fprintf(stderr, "perfbench_client: bad reference %s\n",
                 args.reference.c_str());
    return 1;
  }
  std::ifstream port_in(args.port_file);
  unsigned port = 0;
  if (!(port_in >> port) || port == 0 || port > 65535) {
    std::fprintf(stderr, "perfbench_client: no port in %s\n",
                 args.port_file.c_str());
    return 1;
  }
  const uint64_t config_hash = HashExperimentConfig(config);
  const uint32_t streams = config.tenancy.tenants;

  // Claim every stream first: the server's merge gate opens only once all
  // configured streams are connected.
  std::vector<server::Socket> conns(streams);
  for (uint32_t t = 0; t < streams; ++t) {
    const Status status = Handshake(static_cast<uint16_t>(port), t,
                                    config_hash, &conns[t]);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench_client: stream %u: %s\n", t,
                   status.ToString().c_str());
      return 1;
    }
  }
  std::vector<std::unique_ptr<WorkloadGenerator>> generators =
      MakeGenerators(catalog, resolved, config);
  std::vector<StreamRun> runs(streams);
  for (uint64_t i = 0; i < config.sim.num_queries; ++i) {
    const size_t head = MergeHead(generators);
    runs[head].queries.push_back(generators[head]->Next());
  }

  const int64_t start = NowNs();
  ReplayAll(conns, expected, args.split, &runs);
  const int64_t wall_ns = NowNs() - start;
  for (server::Socket& conn : conns) conn.Close();
  const Status shutdown =
      RequestShutdown(static_cast<uint16_t>(port), config_hash);

  uint64_t failed = 0;
  uint64_t mismatched = 0;
  int64_t split_ns[4] = {0, 0, 0, 0};
  std::string rtts;
  for (uint32_t t = 0; t < streams; ++t) {
    const StreamRun& run = runs[t];
    failed += run.failed;
    mismatched += run.mismatched;
    split_ns[0] += run.encode_ns;
    split_ns[1] += run.write_ns;
    split_ns[2] += run.wait_ns;
    split_ns[3] += run.decode_ns;
    if (!run.error.empty()) {
      std::fprintf(stderr, "perfbench_client: stream %u: %s\n", t,
                   run.error.c_str());
    }
    for (int64_t rtt : run.rtt_ns) {
      if (!rtts.empty()) rtts += ",";
      rtts += std::to_string(rtt);
    }
  }
  if (!shutdown.ok()) {
    std::fprintf(stderr, "perfbench_client: shutdown: %s\n",
                 shutdown.ToString().c_str());
  }
  std::FILE* out = std::fopen(args.result_json.c_str(), "w");
  if (out == nullptr) return 1;
  std::fprintf(out,
               "{\"attempted\": %llu, \"failed\": %llu, \"mismatched\": %llu,"
               " \"shutdown_ok\": %s, \"wall_ns\": %lld,\n"
               " \"encode_ns\": %lld, \"write_ns\": %lld, \"wait_ns\": %lld,"
               " \"decode_ns\": %lld,\n \"rtt_ns\": [%s]}\n",
               static_cast<unsigned long long>(config.sim.num_queries),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(mismatched),
               shutdown.ok() ? "true" : "false",
               static_cast<long long>(wall_ns),
               static_cast<long long>(split_ns[0]),
               static_cast<long long>(split_ns[1]),
               static_cast<long long>(split_ns[2]),
               static_cast<long long>(split_ns[3]), rtts.c_str());
  std::fclose(out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = Parse(argc, argv);
  if (!parsed) return 2;
  const Args& args = *parsed;
  const Status valid = tools::ValidateExperimentFlags(args.exp);
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 2;
  }
  Catalog catalog;
  std::vector<QueryTemplate> templates;
  const Status made =
      tools::MakeExperimentCatalog(args.exp, &catalog, &templates);
  Result<ExperimentConfig> built = tools::MakeExperimentFlagsConfig(args.exp);
  if (!made.ok() || !built.ok()) {
    std::fprintf(stderr, "perfbench_client: bad experiment flags\n");
    return 2;
  }
  const ExperimentConfig config = std::move(built).value();
  Result<std::vector<ResolvedTemplate>> resolved =
      ResolveTemplates(catalog, templates);
  if (!resolved.ok()) {
    std::fprintf(stderr, "%s\n", resolved.status().ToString().c_str());
    return 1;
  }
  if (!args.reference_out.empty()) {
    return WriteReference(args, catalog, *resolved, config);
  }
  return Drive(args, catalog, *resolved, config);
}
