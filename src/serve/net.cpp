#include "serve/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "serve/netfault.hpp"
#include "serve/protocol.hpp"

namespace udb::serve {

// net.cpp-private bridge to Socket's fault-injection bookkeeping.
struct SocketFaultAccess {
  static std::int64_t id(const Socket& s) {
    if (s.fault_id_ < 0) s.fault_id_ = next_net_fault_conn_id();
    return s.fault_id_;
  }
  static std::uint64_t next_seq(const Socket& s) { return s.fault_seq_++; }
};

namespace {

Status errno_status(const char* what) {
  return UnavailableError(std::string(what) + ": " + std::strerror(errno));
}

// ---- fault injection (serve/netfault.hpp) --------------------------------
// One dice roll per frame operation; decisions keyed on (seed, connection
// ordinal, op sequence, direction) via the minimpi decision stream. Returns
// the action to apply. Zero cost when no plan is installed: callers branch
// on net_fault_plan() before reaching here.

enum class FaultAction { kNone, kDrop, kCorrupt, kTruncate, kCrash };

FaultAction roll_fault(const NetFaultPlan& plan, const Socket& s,
                       bool is_write, std::uint64_t& corrupt_salt) {
  const std::int64_t conn = SocketFaultAccess::id(s);
  const std::uint64_t seq = SocketFaultAccess::next_seq(s);
  count_net_fault(NetFaultKind::kOp);

  if (plan.crash_conn >= 0 && conn == plan.crash_conn &&
      seq >= plan.crash_after_ops) {
    count_net_fault(NetFaultKind::kCrash);
    return FaultAction::kCrash;
  }

  const NetOpFaults& ops = is_write ? plan.write : plan.read;
  const std::uint32_t dir = is_write ? 1u : 2u;
  const std::uint64_t h = mpi::fault_hash(plan.seed, static_cast<int>(conn),
                                          static_cast<int>(conn), dir, seq,
                                          /*salt=*/0);
  corrupt_salt = mpi::fault_mix(h);

  // Delay composes with the other faults (a slow link can also corrupt).
  if (ops.delay_rate > 0.0 &&
      mpi::fault_unit(mpi::fault_mix(h ^ 0xD31Au)) < ops.delay_rate) {
    count_net_fault(NetFaultKind::kDelay);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(ops.delay_seconds));
  }

  double u = mpi::fault_unit(h);
  if (u < ops.drop_rate) {
    count_net_fault(NetFaultKind::kDrop);
    return FaultAction::kDrop;
  }
  u -= ops.drop_rate;
  if (u < ops.corrupt_rate) {
    count_net_fault(NetFaultKind::kCorrupt);
    return FaultAction::kCorrupt;
  }
  u -= ops.corrupt_rate;
  if (u < ops.truncate_rate) {
    count_net_fault(NetFaultKind::kTruncate);
    return FaultAction::kTruncate;
  }
  return FaultAction::kNone;
}

// Full-buffer send, EINTR-safe. MSG_NOSIGNAL: a peer that hung up yields
// EPIPE (a Status) instead of killing the process with SIGPIPE.
Status write_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return errno_status("send failed");
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return Status::Ok();
}

// Full-buffer recv. `eof_ok` distinguishes a clean close at a frame boundary
// (UNAVAILABLE "connection closed") from truncation mid-frame (DATA_LOSS).
Status read_all(int fd, std::uint8_t* p, std::size_t n, bool eof_ok) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      // SO_RCVTIMEO elapsed: the idle-timeout / per-attempt-timeout signal,
      // distinct from a dead peer (UNAVAILABLE) and from stream damage
      // (DATA_LOSS).
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return DeadlineExceededError("recv timed out");
      return errno_status("recv failed");
    }
    if (r == 0) {
      if (eof_ok && got == 0)
        return UnavailableError("connection closed");
      return DataLossError("connection closed mid-frame (" +
                           std::to_string(got) + " of " + std::to_string(n) +
                           " bytes)");
    }
    got += static_cast<std::size_t>(r);
  }
  return Status::Ok();
}

}  // namespace

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    fault_id_ = o.fault_id_;
    fault_seq_ = o.fault_seq_;
    o.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_both() const noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

StatusOr<Socket> listen_loopback(std::uint16_t port,
                                 std::uint16_t& bound_port) {
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) return errno_status("socket failed");
  const int one = 1;
  (void)::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0)
    return errno_status("bind failed");
  if (::listen(s.fd(), SOMAXCONN) != 0) return errno_status("listen failed");

  socklen_t len = sizeof addr;
  if (::getsockname(s.fd(), reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return errno_status("getsockname failed");
  bound_port = ntohs(addr.sin_port);
  return s;
}

StatusOr<Socket> accept_connection(const Socket& listener) {
  for (;;) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      Socket s(fd);
      const int one = 1;
      (void)::setsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return s;
    }
    if (errno == EINTR) continue;
    // A transient connection-level failure (the peer vanished between the
    // kernel queue and our accept) should not count against the listener.
    if (errno == ECONNABORTED) continue;
    // Descriptor/buffer exhaustion is retryable after a backoff; the accept
    // loop must not spin on it (and must not treat it as a dead listener).
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM)
      return ResourceExhaustedError(std::string("accept failed: ") +
                                    std::strerror(errno));
    return errno_status("accept failed");
  }
}

void set_socket_timeouts(const Socket& s, double timeout_seconds) noexcept {
  timeval tv{};
  if (timeout_seconds > 0.0 && std::isfinite(timeout_seconds)) {
    tv.tv_sec = static_cast<time_t>(timeout_seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (timeout_seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    // Sub-microsecond deadlines still need a nonzero timeout to take effect.
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  }
  (void)::setsockopt(s.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  (void)::setsockopt(s.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

StatusOr<Socket> connect_loopback(std::uint16_t port, double timeout_seconds) {
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) return errno_status("socket failed");

  if (timeout_seconds > 0.0 && std::isfinite(timeout_seconds))
    set_socket_timeouts(s, timeout_seconds);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int rc;
  do {
    rc = ::connect(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0)
    return UnavailableError("connect to 127.0.0.1:" + std::to_string(port) +
                            " failed: " + std::strerror(errno));
  const int one = 1;
  (void)::setsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return s;
}

Status write_frame(const Socket& s, std::span<const std::uint8_t> body) {
  if (body.size() > kMaxFrameBytes)
    return InvalidArgumentError("write_frame: body of " +
                                std::to_string(body.size()) +
                                " bytes exceeds the frame limit");
  const auto len = static_cast<std::uint32_t>(body.size());
  std::uint8_t prefix[4];
  std::memcpy(prefix, &len, sizeof prefix);

  if (const NetFaultPlan* plan = net_fault_plan()) {
    std::uint64_t salt = 0;
    switch (roll_fault(*plan, s, /*is_write=*/true, salt)) {
      case FaultAction::kNone:
        break;
      case FaultAction::kCrash:
      case FaultAction::kDrop:
        // The connection dies instead of carrying the frame; the peer sees
        // EOF at its next read, this side sees a transport failure now.
        s.shutdown_both();
        return UnavailableError("netfault: injected connection drop on write");
      case FaultAction::kTruncate: {
        // A prefix crosses the wire, then the connection closes — the peer
        // must surface DATA_LOSS mid-frame, never a partial decode. The
        // sender's send() succeeded, so it reports OK (matching real TCP,
        // where buffered bytes are acknowledged before the RST arrives).
        const std::size_t keep = body.empty() ? 0 : (salt % body.size());
        (void)write_all(s.fd(), prefix, sizeof prefix);
        if (keep > 0) (void)write_all(s.fd(), body.data(), keep);
        s.shutdown_both();
        return Status::Ok();
      }
      case FaultAction::kCorrupt: {
        // One byte flipped in flight: the frame arrives with a valid length
        // prefix but damaged contents — exactly what the frame CRC
        // exists to catch.
        std::vector<std::uint8_t> damaged(body.begin(), body.end());
        if (!damaged.empty())
          damaged[salt % damaged.size()] ^=
              static_cast<std::uint8_t>(0x01u << (salt % 8));
        if (Status st = write_all(s.fd(), prefix, sizeof prefix); !st.ok())
          return st;
        return write_all(s.fd(), damaged.data(), damaged.size());
      }
    }
  }

  if (Status st = write_all(s.fd(), prefix, sizeof prefix); !st.ok())
    return st;
  return write_all(s.fd(), body.data(), body.size());
}

StatusOr<std::vector<std::uint8_t>> read_frame(const Socket& s) {
  std::uint64_t fault_salt = 0;
  FaultAction fault = FaultAction::kNone;
  if (const NetFaultPlan* plan = net_fault_plan()) {
    fault = roll_fault(*plan, s, /*is_write=*/false, fault_salt);
    if (fault == FaultAction::kCrash || fault == FaultAction::kDrop) {
      s.shutdown_both();
      return UnavailableError("netfault: injected connection drop on read");
    }
  }

  std::uint8_t prefix[4];
  if (Status st = read_all(s.fd(), prefix, sizeof prefix, /*eof_ok=*/true);
      !st.ok())
    return st;
  std::uint32_t len = 0;
  std::memcpy(&len, prefix, sizeof len);
  if (len > kMaxFrameBytes)
    return DataLossError("read_frame: length prefix of " +
                         std::to_string(len) +
                         " bytes exceeds the frame limit of " +
                         std::to_string(kMaxFrameBytes));
  std::vector<std::uint8_t> body(len);
  if (len > 0)
    if (Status st = read_all(s.fd(), body.data(), len, /*eof_ok=*/false);
        !st.ok())
      return st;

  if (fault == FaultAction::kTruncate) {
    // Receiver-side truncation: the frame was consumed off the wire (the
    // stream stays in sync) but the payload is reported lost mid-frame.
    return DataLossError("netfault: injected truncation on read (" +
                         std::to_string(fault_salt % (body.size() + 1)) +
                         " of " + std::to_string(body.size()) + " bytes)");
  }
  if (fault == FaultAction::kCorrupt && !body.empty())
    body[fault_salt % body.size()] ^=
        static_cast<std::uint8_t>(0x01u << (fault_salt % 8));
  return body;
}

}  // namespace udb::serve
