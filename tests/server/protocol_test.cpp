// The wire codec is the persistence codec's discipline applied to a
// socket: explicit layout, strict decode. Three properties pin it down:
//
//  1. Round-trip: every message type encodes and decodes to itself,
//     field for field, including the full Query payload.
//  2. Truncation refusal: a payload cut at ANY byte boundary is refused
//     with an error, never misread — the same exhaustive-prefix sweep
//     tests/persist/ runs over snapshots.
//  3. Corruption refusal: unknown type bytes, out-of-range enum values,
//     non-0/1 bools, invalid numeric domains, and trailing garbage are
//     all refused.
//  4. Framing: the incremental FrameReader reassembles a byte stream cut
//     at every boundary into the same frames, and refuses the lengths
//     ReadFrame refuses; WriteFrame's one-sendmsg frames read back.

#include "src/server/protocol.h"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/persist/codec.h"
#include "src/server/socket_io.h"

namespace cloudcache::server {
namespace {

/// A fully-populated query exercising every encoded field.
Query SampleQuery() {
  Query q;
  q.id = 41'217;
  q.template_id = 7;
  q.table = 3;
  q.output_columns = {11, 12, 19};
  Predicate date;
  date.column = 12;
  date.selectivity = 0.015625;
  date.equality = false;
  date.clustered = true;
  q.predicates.push_back(date);
  Predicate key;
  key.column = 19;
  key.selectivity = 1.0;
  key.equality = true;
  key.clustered = false;
  q.predicates.push_back(key);
  q.cpu_multiplier = 2.25;
  q.parallel_fraction = 0.875;
  q.result_rows = 123'456;
  q.result_bytes = 987'654'321;
  q.arrival_time = 1'234.5;
  q.tenant_id = 2;
  return q;
}

/// Decodes an encoded payload with the message-appropriate decoder,
/// returning the decode status (PeekType + body + ExpectEnd).
Status DecodeAs(MessageType want, const std::vector<uint8_t>& bytes) {
  persist::Decoder dec(bytes.data(), bytes.size());
  MessageType type = want;
  CLOUDCACHE_RETURN_IF_ERROR(PeekType(&dec, &type));
  if (type != want) return Status::InvalidArgument("wrong type");
  switch (want) {
    case MessageType::kHello: {
      HelloMsg msg;
      return DecodeHello(&dec, &msg);
    }
    case MessageType::kHelloAck: {
      HelloAckMsg msg;
      return DecodeHelloAck(&dec, &msg);
    }
    case MessageType::kQuery: {
      Query query;
      return DecodeQuery(&dec, &query);
    }
    case MessageType::kOutcome: {
      OutcomeMsg msg;
      return DecodeOutcome(&dec, &msg);
    }
    case MessageType::kError: {
      ErrorMsg msg;
      return DecodeError(&dec, &msg);
    }
    case MessageType::kStats:
      return DecodeStats(&dec);
    case MessageType::kStatsAck: {
      StatsAckMsg msg;
      return DecodeStatsAck(&dec, &msg);
    }
    case MessageType::kShutdown:
      return DecodeShutdown(&dec);
    case MessageType::kShutdownAck:
      return DecodeShutdownAck(&dec);
    case MessageType::kStatsSubscribe: {
      StatsSubscribeMsg msg;
      return DecodeStatsSubscribe(&dec, &msg);
    }
  }
  return Status::Internal("unreachable");
}

TEST(ProtocolTest, HelloRoundTrips) {
  HelloMsg msg;
  msg.protocol_version = kProtocolVersion;
  msg.stream_id = kControlStream;
  msg.config_hash = 0xF888359F07649B8Full;
  persist::Encoder enc;
  EncodeHello(msg, &enc);

  persist::Decoder dec(enc.buffer().data(), enc.size());
  MessageType type = MessageType::kError;
  ASSERT_TRUE(PeekType(&dec, &type).ok());
  EXPECT_EQ(type, MessageType::kHello);
  HelloMsg out;
  ASSERT_TRUE(DecodeHello(&dec, &out).ok());
  EXPECT_EQ(out.protocol_version, msg.protocol_version);
  EXPECT_EQ(out.stream_id, msg.stream_id);
  EXPECT_EQ(out.config_hash, msg.config_hash);
}

TEST(ProtocolTest, HelloAckRoundTrips) {
  HelloAckMsg msg;
  msg.protocol_version = 1;
  msg.stream_id = 3;
  msg.config_hash = 0xDEADBEEFCAFEF00Dull;
  msg.num_queries = 50'000;
  msg.next_query_id = 12'000;
  persist::Encoder enc;
  EncodeHelloAck(msg, &enc);

  persist::Decoder dec(enc.buffer().data(), enc.size());
  MessageType type = MessageType::kError;
  ASSERT_TRUE(PeekType(&dec, &type).ok());
  EXPECT_EQ(type, MessageType::kHelloAck);
  HelloAckMsg out;
  ASSERT_TRUE(DecodeHelloAck(&dec, &out).ok());
  EXPECT_EQ(out.protocol_version, msg.protocol_version);
  EXPECT_EQ(out.stream_id, msg.stream_id);
  EXPECT_EQ(out.config_hash, msg.config_hash);
  EXPECT_EQ(out.num_queries, msg.num_queries);
  EXPECT_EQ(out.next_query_id, msg.next_query_id);
}

TEST(ProtocolTest, QueryRoundTripsEveryField) {
  const Query q = SampleQuery();
  persist::Encoder enc;
  EncodeQuery(q, &enc);

  persist::Decoder dec(enc.buffer().data(), enc.size());
  MessageType type = MessageType::kError;
  ASSERT_TRUE(PeekType(&dec, &type).ok());
  EXPECT_EQ(type, MessageType::kQuery);
  Query out;
  ASSERT_TRUE(DecodeQuery(&dec, &out).ok());
  EXPECT_EQ(out.id, q.id);
  EXPECT_EQ(out.template_id, q.template_id);
  EXPECT_EQ(out.table, q.table);
  EXPECT_EQ(out.output_columns, q.output_columns);
  ASSERT_EQ(out.predicates.size(), q.predicates.size());
  for (size_t i = 0; i < q.predicates.size(); ++i) {
    EXPECT_EQ(out.predicates[i].column, q.predicates[i].column);
    EXPECT_EQ(out.predicates[i].selectivity, q.predicates[i].selectivity);
    EXPECT_EQ(out.predicates[i].equality, q.predicates[i].equality);
    EXPECT_EQ(out.predicates[i].clustered, q.predicates[i].clustered);
  }
  EXPECT_EQ(out.cpu_multiplier, q.cpu_multiplier);
  EXPECT_EQ(out.parallel_fraction, q.parallel_fraction);
  EXPECT_EQ(out.result_rows, q.result_rows);
  EXPECT_EQ(out.result_bytes, q.result_bytes);
  EXPECT_EQ(out.arrival_time, q.arrival_time);
  EXPECT_EQ(out.tenant_id, q.tenant_id);
}

TEST(ProtocolTest, OutcomeRoundTrips) {
  OutcomeMsg msg;
  msg.query_id = 99;
  msg.global_index = 1'234;
  msg.served = true;
  msg.access = 2;  // kCacheIndex.
  msg.throttled = true;
  msg.response_seconds = 0.125;
  msg.payment_micros = -7'000'001;
  msg.profit_micros = 3'141'592;
  msg.has_budget_case = true;
  msg.budget_case = 1;  // kCaseB.
  msg.investments = 3;
  msg.evictions = 2;
  persist::Encoder enc;
  EncodeOutcome(msg, &enc);

  persist::Decoder dec(enc.buffer().data(), enc.size());
  MessageType type = MessageType::kError;
  ASSERT_TRUE(PeekType(&dec, &type).ok());
  EXPECT_EQ(type, MessageType::kOutcome);
  OutcomeMsg out;
  ASSERT_TRUE(DecodeOutcome(&dec, &out).ok());
  EXPECT_EQ(out.query_id, msg.query_id);
  EXPECT_EQ(out.global_index, msg.global_index);
  EXPECT_EQ(out.served, msg.served);
  EXPECT_EQ(out.access, msg.access);
  EXPECT_EQ(out.throttled, msg.throttled);
  EXPECT_EQ(out.response_seconds, msg.response_seconds);
  EXPECT_EQ(out.payment_micros, msg.payment_micros);
  EXPECT_EQ(out.profit_micros, msg.profit_micros);
  EXPECT_EQ(out.has_budget_case, msg.has_budget_case);
  EXPECT_EQ(out.budget_case, msg.budget_case);
  EXPECT_EQ(out.investments, msg.investments);
  EXPECT_EQ(out.evictions, msg.evictions);
}

TEST(ProtocolTest, ErrorStatsAndShutdownRoundTrip) {
  ErrorMsg error;
  error.code = ErrorCode::kStreamDiverged;
  error.message = "stream 2 diverged from its twin generator";
  persist::Encoder enc;
  EncodeError(error, &enc);
  {
    persist::Decoder dec(enc.buffer().data(), enc.size());
    MessageType type = MessageType::kHello;
    ASSERT_TRUE(PeekType(&dec, &type).ok());
    EXPECT_EQ(type, MessageType::kError);
    ErrorMsg out;
    ASSERT_TRUE(DecodeError(&dec, &out).ok());
    EXPECT_EQ(out.code, error.code);
    EXPECT_EQ(out.message, error.message);
  }

  StatsAckMsg stats;
  stats.processed = 1'500;
  stats.num_queries = 3'000;
  stats.served = 1'499;
  stats.active_streams = 4;
  stats.credit_micros = -12'345;
  stats.served_in_cache = 321;
  stats.throttled = 17;
  stats.investments = 9;
  stats.evictions = 2;
  StreamStatsMsg slice;
  slice.stream = 0;
  slice.queries = 800;
  slice.served = 799;
  slice.throttled = 17;
  stats.streams.push_back(slice);
  slice.stream = 3;
  slice.queries = 700;
  slice.served = 700;
  slice.throttled = 0;
  stats.streams.push_back(slice);
  enc.Clear();
  EncodeStatsAck(stats, &enc);
  {
    persist::Decoder dec(enc.buffer().data(), enc.size());
    MessageType type = MessageType::kHello;
    ASSERT_TRUE(PeekType(&dec, &type).ok());
    EXPECT_EQ(type, MessageType::kStatsAck);
    StatsAckMsg out;
    ASSERT_TRUE(DecodeStatsAck(&dec, &out).ok());
    EXPECT_EQ(out.processed, stats.processed);
    EXPECT_EQ(out.num_queries, stats.num_queries);
    EXPECT_EQ(out.served, stats.served);
    EXPECT_EQ(out.active_streams, stats.active_streams);
    EXPECT_EQ(out.credit_micros, stats.credit_micros);
    EXPECT_EQ(out.served_in_cache, stats.served_in_cache);
    EXPECT_EQ(out.throttled, stats.throttled);
    EXPECT_EQ(out.investments, stats.investments);
    EXPECT_EQ(out.evictions, stats.evictions);
    ASSERT_EQ(out.streams.size(), stats.streams.size());
    for (size_t i = 0; i < out.streams.size(); ++i) {
      EXPECT_EQ(out.streams[i].stream, stats.streams[i].stream);
      EXPECT_EQ(out.streams[i].queries, stats.streams[i].queries);
      EXPECT_EQ(out.streams[i].served, stats.streams[i].served);
      EXPECT_EQ(out.streams[i].throttled, stats.streams[i].throttled);
    }
  }

  StatsSubscribeMsg subscribe;
  subscribe.every = 250;
  enc.Clear();
  EncodeStatsSubscribe(subscribe, &enc);
  {
    persist::Decoder dec(enc.buffer().data(), enc.size());
    MessageType type = MessageType::kHello;
    ASSERT_TRUE(PeekType(&dec, &type).ok());
    EXPECT_EQ(type, MessageType::kStatsSubscribe);
    StatsSubscribeMsg out;
    ASSERT_TRUE(DecodeStatsSubscribe(&dec, &out).ok());
    EXPECT_EQ(out.every, subscribe.every);
  }
  // A zero cadence would push a frame per served query forever; the
  // decoder refuses it so the server never has to.
  subscribe.every = 0;
  enc.Clear();
  EncodeStatsSubscribe(subscribe, &enc);
  {
    persist::Decoder dec(enc.buffer().data(), enc.size());
    MessageType type = MessageType::kHello;
    ASSERT_TRUE(PeekType(&dec, &type).ok());
    StatsSubscribeMsg out;
    EXPECT_FALSE(DecodeStatsSubscribe(&dec, &out).ok());
  }

  // The bodyless messages.
  for (MessageType type :
       {MessageType::kStats, MessageType::kShutdown,
        MessageType::kShutdownAck}) {
    enc.Clear();
    if (type == MessageType::kStats) EncodeStats(&enc);
    if (type == MessageType::kShutdown) EncodeShutdown(&enc);
    if (type == MessageType::kShutdownAck) EncodeShutdownAck(&enc);
    EXPECT_TRUE(DecodeAs(type, enc.buffer()).ok())
        << MessageTypeName(type);
  }
}

/// One encoded payload of every message type that has a body.
std::vector<std::pair<MessageType, std::vector<uint8_t>>> OneOfEachMessage() {
  std::vector<std::pair<MessageType, std::vector<uint8_t>>> messages;
  persist::Encoder enc;

  HelloMsg hello;
  hello.config_hash = 0x1234;
  EncodeHello(hello, &enc);
  messages.emplace_back(MessageType::kHello, enc.buffer());
  enc.Clear();

  HelloAckMsg ack;
  ack.num_queries = 10;
  EncodeHelloAck(ack, &enc);
  messages.emplace_back(MessageType::kHelloAck, enc.buffer());
  enc.Clear();

  EncodeQuery(SampleQuery(), &enc);
  messages.emplace_back(MessageType::kQuery, enc.buffer());
  enc.Clear();

  OutcomeMsg outcome;
  outcome.served = true;
  EncodeOutcome(outcome, &enc);
  messages.emplace_back(MessageType::kOutcome, enc.buffer());
  enc.Clear();

  ErrorMsg error;
  error.code = ErrorCode::kBadFrame;
  error.message = "x";
  EncodeError(error, &enc);
  messages.emplace_back(MessageType::kError, enc.buffer());
  enc.Clear();

  StatsAckMsg stats;
  stats.streams.push_back(StreamStatsMsg());  // Truncate into the slice.
  EncodeStatsAck(stats, &enc);
  messages.emplace_back(MessageType::kStatsAck, enc.buffer());
  enc.Clear();

  StatsSubscribeMsg subscribe;
  subscribe.every = 100;
  EncodeStatsSubscribe(subscribe, &enc);
  messages.emplace_back(MessageType::kStatsSubscribe, enc.buffer());
  return messages;
}

TEST(ProtocolTest, EveryTruncationOfEveryMessageIsRefused) {
  // Encode one of each message, then replay every strict prefix of each
  // payload through its decoder: all must fail, none may crash or
  // succeed on partial data. (Prefix length 0 is the transport's case —
  // ReadFrame refuses empty frames before any decoder runs.)
  const std::vector<std::pair<MessageType, std::vector<uint8_t>>> messages =
      OneOfEachMessage();
  for (const auto& [type, bytes] : messages) {
    ASSERT_TRUE(DecodeAs(type, bytes).ok()) << MessageTypeName(type);
    for (size_t cut = 1; cut < bytes.size(); ++cut) {
      const std::vector<uint8_t> prefix(bytes.begin(),
                                        bytes.begin() + cut);
      EXPECT_FALSE(DecodeAs(type, prefix).ok())
          << MessageTypeName(type) << " truncated to " << cut << " of "
          << bytes.size() << " bytes decoded successfully";
    }
  }
}

TEST(ProtocolTest, TrailingBytesAreRefused) {
  persist::Encoder enc;
  EncodeHello(HelloMsg{}, &enc);
  std::vector<uint8_t> bytes = enc.buffer();
  bytes.push_back(0x00);
  EXPECT_FALSE(DecodeAs(MessageType::kHello, bytes).ok());

  enc.Clear();
  EncodeShutdown(&enc);
  bytes = enc.buffer();
  bytes.push_back(0xFF);
  EXPECT_FALSE(DecodeAs(MessageType::kShutdown, bytes).ok());
}

TEST(ProtocolTest, UnknownTypeBytesAreRefused) {
  for (const uint8_t raw : {uint8_t{0}, uint8_t{11}, uint8_t{0xFF}}) {
    const std::vector<uint8_t> bytes = {raw};
    persist::Decoder dec(bytes.data(), bytes.size());
    MessageType type = MessageType::kHello;
    EXPECT_FALSE(PeekType(&dec, &type).ok()) << static_cast<int>(raw);
  }
}

TEST(ProtocolTest, CorruptEnumAndBoolValuesAreRefused) {
  // Outcome.access is the byte right after query_id + global_index
  // (type byte + 2x u64); force it out of range.
  OutcomeMsg outcome;
  persist::Encoder enc;
  EncodeOutcome(outcome, &enc);
  std::vector<uint8_t> bytes = enc.buffer();
  const size_t access_offset = 1 + 8 + 8 + 1;  // type, id, index, served.
  bytes[access_offset] = 3;
  EXPECT_FALSE(DecodeAs(MessageType::kOutcome, bytes).ok());

  // The served bool (one byte earlier) must reject non-0/1.
  bytes = enc.buffer();
  bytes[access_offset - 1] = 2;
  EXPECT_FALSE(DecodeAs(MessageType::kOutcome, bytes).ok());

  // Error.code rejects out-of-range codes.
  ErrorMsg error;
  error.code = ErrorCode::kInternal;
  enc.Clear();
  EncodeError(error, &enc);
  bytes = enc.buffer();
  bytes[1] = 200;  // The code byte follows the type byte.
  EXPECT_FALSE(DecodeAs(MessageType::kError, bytes).ok());
}

TEST(ProtocolTest, InvalidQueryDomainsAreRefused) {
  // The decoder enforces the same numeric domains Query::Validate does:
  // selectivity in (0, 1], finite positive cpu_multiplier, parallel
  // fraction in [0, 1], finite non-negative arrival.
  Query q = SampleQuery();
  q.predicates[0].selectivity = 0.0;
  persist::Encoder enc;
  EncodeQuery(q, &enc);
  EXPECT_FALSE(DecodeAs(MessageType::kQuery, enc.buffer()).ok());

  q = SampleQuery();
  q.cpu_multiplier = std::numeric_limits<double>::infinity();
  enc.Clear();
  EncodeQuery(q, &enc);
  EXPECT_FALSE(DecodeAs(MessageType::kQuery, enc.buffer()).ok());

  q = SampleQuery();
  q.parallel_fraction = 1.5;
  enc.Clear();
  EncodeQuery(q, &enc);
  EXPECT_FALSE(DecodeAs(MessageType::kQuery, enc.buffer()).ok());

  q = SampleQuery();
  q.arrival_time = -1.0;
  enc.Clear();
  EncodeQuery(q, &enc);
  EXPECT_FALSE(DecodeAs(MessageType::kQuery, enc.buffer()).ok());
}

TEST(ProtocolTest, NamesCoverEveryValue) {
  for (uint8_t raw = 1; raw <= 10; ++raw) {
    EXPECT_STRNE(MessageTypeName(static_cast<MessageType>(raw)), "");
  }
  for (uint8_t raw = 1; raw <= 10; ++raw) {
    EXPECT_STRNE(ErrorCodeName(static_cast<ErrorCode>(raw)), "");
  }
}

/// Every message payload, bodyless ones included, framed back to back.
std::vector<std::vector<uint8_t>> FramedMessages(std::vector<uint8_t>* wire) {
  std::vector<std::vector<uint8_t>> payloads;
  for (const auto& message : OneOfEachMessage()) {
    payloads.push_back(message.second);
  }
  persist::Encoder enc;
  EncodeStats(&enc);
  payloads.push_back(enc.buffer());
  enc.Clear();
  EncodeShutdown(&enc);
  payloads.push_back(enc.buffer());
  for (const std::vector<uint8_t>& payload : payloads) {
    enc.Clear();
    enc.PutBytes(payload.data(), payload.size());
    EXPECT_TRUE(AppendFrame(enc, wire).ok());
  }
  return payloads;
}

/// Pops every complete frame `reader` holds onto `popped`.
void PopAll(FrameReader* reader, std::vector<std::vector<uint8_t>>* popped) {
  std::vector<uint8_t> payload;
  bool got = true;
  while (got) {
    ASSERT_TRUE(reader->Pop(&payload, &got).ok());
    if (got) popped->push_back(payload);
  }
}

TEST(ProtocolTest, FrameReaderReassemblesEverySplit) {
  std::vector<uint8_t> wire;
  const std::vector<std::vector<uint8_t>> payloads = FramedMessages(&wire);
  // Two reads, cut at every byte of the stream (so inside every length
  // prefix and every payload of every message).
  for (size_t cut = 0; cut <= wire.size(); ++cut) {
    FrameReader reader;
    std::vector<std::vector<uint8_t>> popped;
    reader.Append(wire.data(), cut);
    PopAll(&reader, &popped);
    reader.Append(wire.data() + cut, wire.size() - cut);
    PopAll(&reader, &popped);
    EXPECT_EQ(popped, payloads) << "cut at byte " << cut;
  }
  // One byte per read: a frame pops exactly when its last byte arrives.
  FrameReader reader;
  std::vector<std::vector<uint8_t>> popped;
  size_t next_frame_end = 4 + payloads[0].size();
  for (size_t i = 0; i < wire.size(); ++i) {
    reader.Append(wire.data() + i, 1);
    const size_t before = popped.size();
    PopAll(&reader, &popped);
    if (i + 1 == next_frame_end) {
      ASSERT_EQ(popped.size(), before + 1) << "byte " << i;
      if (popped.size() < payloads.size()) {
        next_frame_end += 4 + payloads[popped.size()].size();
      }
    } else {
      ASSERT_EQ(popped.size(), before) << "byte " << i;
    }
  }
  EXPECT_EQ(popped, payloads);
}

TEST(ProtocolTest, FrameReaderRefusesCorruptLengths) {
  const auto refused = [](std::vector<uint8_t> bytes) {
    FrameReader reader;
    std::vector<uint8_t> payload;
    bool popped = false;
    // The prefix split over two reads: nothing is judged before byte 4.
    reader.Append(bytes.data(), 2);
    EXPECT_TRUE(reader.Pop(&payload, &popped).ok());
    EXPECT_FALSE(popped);
    reader.Append(bytes.data() + 2, bytes.size() - 2);
    const Status status = reader.Pop(&payload, &popped);
    EXPECT_FALSE(popped);
    return !status.ok();
  };
  // A zero length (no type byte) and one byte over the 1 MiB cap are
  // refused from the prefix alone; the cap itself is only incomplete.
  EXPECT_TRUE(refused({0, 0, 0, 0}));
  const uint32_t over = kMaxFramePayloadBytes + 1;
  EXPECT_TRUE(refused({static_cast<uint8_t>(over), 0, 0x10, 0}));
  EXPECT_TRUE(refused({0xFF, 0xFF, 0xFF, 0xFF, 3}));
  EXPECT_FALSE(refused({0, 0, 0x10, 0, 3}));

  // The outbound side refuses the same lengths before touching a socket.
  persist::Encoder empty;
  std::vector<uint8_t> out;
  EXPECT_FALSE(AppendFrame(empty, &out).ok());
  EXPECT_FALSE(WriteFrame(Socket(), empty).ok());
  persist::Encoder huge;
  const std::vector<uint8_t> big(kMaxFramePayloadBytes + 1, 3);
  huge.PutBytes(big.data(), big.size());
  EXPECT_FALSE(AppendFrame(huge, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(ProtocolTest, WriteFrameRoundTripsThroughReadFrame) {
  // WriteFrame sends prefix and payload in one sendmsg; a payload at the
  // cap outgrows the socket buffer, so the partial-send path runs too.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket writer(fds[0]);
  Socket reader(fds[1]);
  std::vector<std::vector<uint8_t>> payloads;
  for (const size_t size : {size_t{1}, size_t{300}, size_t{1} << 20}) {
    std::vector<uint8_t> payload(size);
    for (size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<uint8_t>(i * 31 + size);
    }
    payloads.push_back(payload);
  }
  std::thread sender([&writer, &payloads] {
    for (const std::vector<uint8_t>& payload : payloads) {
      persist::Encoder enc;
      enc.PutBytes(payload.data(), payload.size());
      EXPECT_TRUE(WriteFrame(writer, enc).ok());
    }
    writer.Close();
  });
  std::vector<std::vector<uint8_t>> received;
  bool clean_eof = false;
  while (!clean_eof) {
    std::vector<uint8_t> got;
    if (!ReadFrame(reader, &got, &clean_eof).ok()) {
      reader.ShutdownBoth();  // Unblocks the sender.
      break;
    }
    if (!clean_eof) received.push_back(got);
  }
  sender.join();
  EXPECT_TRUE(clean_eof);
  EXPECT_EQ(received, payloads);
}

}  // namespace
}  // namespace cloudcache::server
