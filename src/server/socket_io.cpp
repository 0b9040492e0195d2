#include "src/server/socket_io.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace cloudcache {
namespace server {

namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

Status FillAddress(const std::string& host, uint16_t port,
                   sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// The length check every frame passes, outbound and inbound.
Status CheckFrameLength(uint64_t length) {
  if (length == 0) {
    return Status::InvalidArgument("empty frame (no message type byte)");
  }
  if (length > kMaxFramePayloadBytes) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(length) +
        " bytes exceeds the 1 MiB cap");
  }
  return Status::OK();
}

/// The u32 little-endian length prefix of a `length`-byte payload.
void PutPrefix(uint32_t length, uint8_t prefix[4]) {
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<uint8_t>(length >> (8 * i));
  }
}

uint32_t GetPrefix(const uint8_t prefix[4]) {
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(prefix[i]) << (8 * i);
  }
  return length;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Result<Socket> ConnectTcp(const std::string& host, uint16_t port) {
  sockaddr_in addr;
  CLOUDCACHE_RETURN_IF_ERROR(FillAddress(host, port, &addr));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket socket(fd);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Errno("connect to " + host + ":" + std::to_string(port));
  }
  SetNoDelay(fd);
  return socket;
}

Result<Socket> ListenTcp(const std::string& host, uint16_t port) {
  sockaddr_in addr;
  CLOUDCACHE_RETURN_IF_ERROR(FillAddress(host, port, &addr));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket socket(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd, 64) != 0) return Errno("listen");
  return socket;
}

Result<uint16_t> LocalPort(const Socket& socket) {
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
    return Errno("getsockname");
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

void EnableNoDelay(const Socket& socket) { SetNoDelay(socket.fd()); }

Status WriteAll(const Socket& socket, const uint8_t* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(socket.fd(), data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WriteFrame(const Socket& socket, const persist::Encoder& payload) {
  const std::vector<uint8_t>& body = payload.buffer();
  CLOUDCACHE_RETURN_IF_ERROR(CheckFrameLength(body.size()));
  uint8_t prefix[4];
  PutPrefix(static_cast<uint32_t>(body.size()), prefix);
  iovec parts[2];
  parts[0].iov_base = prefix;
  parts[0].iov_len = sizeof(prefix);
  parts[1].iov_base = const_cast<uint8_t*>(body.data());
  parts[1].iov_len = body.size();
  msghdr msg{};
  msg.msg_iov = parts;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    const ssize_t n = ::sendmsg(socket.fd(), &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    // A short send: skip what went out and resend the rest.
    size_t sent = static_cast<size_t>(n);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov[0].iov_len) {
      sent -= msg.msg_iov[0].iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov[0].iov_base =
          static_cast<uint8_t*>(msg.msg_iov[0].iov_base) + sent;
      msg.msg_iov[0].iov_len -= sent;
    }
  }
  return Status::OK();
}

Status AppendFrame(const persist::Encoder& payload,
                   std::vector<uint8_t>* out) {
  const std::vector<uint8_t>& body = payload.buffer();
  CLOUDCACHE_RETURN_IF_ERROR(CheckFrameLength(body.size()));
  uint8_t prefix[4];
  PutPrefix(static_cast<uint32_t>(body.size()), prefix);
  out->insert(out->end(), prefix, prefix + sizeof(prefix));
  out->insert(out->end(), body.begin(), body.end());
  return Status::OK();
}

namespace {

/// Reads exactly `size` bytes. `*clean_eof` is set (and OK returned) only
/// when the peer closed before the FIRST byte — i.e. at a frame boundary
/// when called for a length prefix; mid-buffer EOF is an error. With a
/// `limit`, each recv waits for the socket to turn readable in poll slices
/// first and gives up at the limit's deadline or stop flag.
Status ReadExact(const Socket& socket, uint8_t* data, size_t size,
                 const ReadLimit* limit, bool* clean_eof) {
  *clean_eof = false;
  size_t got = 0;
  while (got < size) {
    if (limit != nullptr) {
      const int64_t left =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              limit->deadline - std::chrono::steady_clock::now())
              .count();
      if (limit->stop != nullptr && limit->stop->load()) {
        return Status::IoError("read cut by a drain");
      }
      if (left <= 0) return Status::IoError("read deadline passed");
      pollfd pfd{socket.fd(), POLLIN, 0};
      const int slice =
          static_cast<int>(std::min<int64_t>(left, limit->slice_ms));
      if (::poll(&pfd, 1, slice) <= 0) continue;
    }
    const ssize_t n = ::recv(socket.fd(), data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) {
      if (got == 0) {
        *clean_eof = true;
        return Status::OK();
      }
      return Status::IoError("connection closed mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadFrameLimited(const Socket& socket, const ReadLimit* limit,
                        std::vector<uint8_t>* payload, bool* clean_eof) {
  payload->clear();
  uint8_t prefix[4];
  CLOUDCACHE_RETURN_IF_ERROR(
      ReadExact(socket, prefix, sizeof(prefix), limit, clean_eof));
  if (*clean_eof) return Status::OK();
  const uint32_t length = GetPrefix(prefix);
  CLOUDCACHE_RETURN_IF_ERROR(CheckFrameLength(length));
  payload->resize(length);
  bool mid_eof = false;
  const Status read =
      ReadExact(socket, payload->data(), payload->size(), limit, &mid_eof);
  CLOUDCACHE_RETURN_IF_ERROR(read);
  if (mid_eof) {
    return Status::IoError("connection closed between length and payload");
  }
  return Status::OK();
}

}  // namespace

Status ReadFrame(const Socket& socket, std::vector<uint8_t>* payload,
                 bool* clean_eof) {
  return ReadFrameLimited(socket, nullptr, payload, clean_eof);
}

Status ReadFrame(const Socket& socket, const ReadLimit& limit,
                 std::vector<uint8_t>* payload, bool* clean_eof) {
  return ReadFrameLimited(socket, &limit, payload, clean_eof);
}

void FrameReader::Append(const uint8_t* data, size_t size) {
  // Popped frames are dropped first, so the buffer holds at most what
  // has not been consumed yet.
  buf_.erase(buf_.begin(),
             buf_.begin() + static_cast<std::ptrdiff_t>(head_));
  head_ = 0;
  buf_.insert(buf_.end(), data, data + size);
}

Status FrameReader::Pop(std::vector<uint8_t>* payload, bool* popped) {
  *popped = false;
  const size_t available = buf_.size() - head_;
  if (available < 4) return Status::OK();
  const uint32_t length = GetPrefix(buf_.data() + head_);
  CLOUDCACHE_RETURN_IF_ERROR(CheckFrameLength(length));
  if (available - 4 < length) return Status::OK();
  const uint8_t* begin = buf_.data() + head_ + 4;
  payload->assign(begin, begin + length);
  head_ += 4 + static_cast<size_t>(length);
  *popped = true;
  return Status::OK();
}

}  // namespace server
}  // namespace cloudcache
