#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/persist/codec.h"
#include "src/server/protocol.h"
#include "src/util/status.h"

namespace cloudcache {
namespace server {

/// Thin RAII wrapper over a TCP socket fd plus frame I/O — blocking
/// (WriteFrame/ReadFrame) and incremental (AppendFrame/FrameReader, for
/// the server's nonblocking event loop). Everything here is transport;
/// message layout lives in protocol.h.
/// Linux-only by design (the container and CI are): sends use
/// MSG_NOSIGNAL so a peer that vanished surfaces as a Status, never as
/// SIGPIPE.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();
  /// shutdown(SHUT_RDWR): unblocks any thread parked in a read on this
  /// socket (the server's drain path kicks every live connection this
  /// way) without racing the fd's lifetime the way close() would.
  void ShutdownBoth();

 private:
  int fd_ = -1;
};

/// Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1"), with
/// TCP_NODELAY set — the protocol is closed-loop request/response, where
/// Nagle would serialize every exchange onto a 40 ms ack timer.
Result<Socket> ConnectTcp(const std::string& host, uint16_t port);

/// Binds host:port (port 0 picks an ephemeral port) and listens.
Result<Socket> ListenTcp(const std::string& host, uint16_t port);

/// The port a bound socket actually listens on (resolves port 0).
Result<uint16_t> LocalPort(const Socket& socket);

/// TCP_NODELAY for sockets not created by ConnectTcp (accepted fds).
void EnableNoDelay(const Socket& socket);

/// Blocking write of the whole buffer.
Status WriteAll(const Socket& socket, const uint8_t* data, size_t size);

/// Frames `type byte + body` already encoded into `payload` with the u32
/// little-endian length prefix and writes both out in one sendmsg (no
/// copy of the payload).
Status WriteFrame(const Socket& socket, const persist::Encoder& payload);

/// Appends the framed `payload` (length prefix, then the bytes) to `out`,
/// for a caller that flushes `out` itself. Refuses what WriteFrame does.
Status AppendFrame(const persist::Encoder& payload, std::vector<uint8_t>* out);

/// Reads one length-prefixed frame into `payload`. A connection closed
/// cleanly at a frame boundary sets `*clean_eof` and returns OK with an
/// empty payload; EOF mid-frame, oversize lengths
/// (> kMaxFramePayloadBytes), and I/O errors return a Status.
Status ReadFrame(const Socket& socket, std::vector<uint8_t>* payload,
                 bool* clean_eof);

/// When a bounded read gives up: at `deadline`, or once `*stop` (if
/// given) is set, which it checks every `slice_ms`.
struct ReadLimit {
  std::chrono::steady_clock::time_point deadline;
  const std::atomic<bool>* stop = nullptr;
  int64_t slice_ms = 0;
};

/// ReadFrame bounded by `limit`: an IoError once the limit passes before
/// the whole frame arrived. It waits in poll and reads only the frame's
/// own bytes, so the socket keeps its blocking mode and its options, and
/// bytes the peer sent after the frame stay queued for the next reader.
Status ReadFrame(const Socket& socket, const ReadLimit& limit,
                 std::vector<uint8_t>* payload, bool* clean_eof);

/// Incremental frame parser for nonblocking reads: Append whatever bytes
/// arrived, then Pop complete frames. Applies ReadFrame's refusals — a
/// zero or over-cap length prefix fails as soon as its 4 bytes are in,
/// before any payload is buffered for it.
class FrameReader {
 public:
  void Append(const uint8_t* data, size_t size);

  /// Copies the next complete frame's payload into `*payload` and sets
  /// `*popped`; leaves `*popped` false while the buffered bytes end
  /// mid-frame.
  Status Pop(std::vector<uint8_t>* payload, bool* popped);

 private:
  std::vector<uint8_t> buf_;
  size_t head_ = 0;  // Start of the first unpopped byte in buf_.
};

}  // namespace server
}  // namespace cloudcache
