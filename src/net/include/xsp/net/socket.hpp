// Nonblocking sockets, a listener, and a poll(2) wrapper — the event-loop
// substrate under xsp_collectd and trace::RemoteSink.
//
// Scope is deliberately small: the collector serves tens of producer
// connections, not tens of thousands, so poll(2) over a rebuilt pollfd
// vector beats dragging in epoll's lifecycle (and stays portable to the
// BSDs/macOS where CI might land). Everything is nonblocking; blocking
// behaviour is composed from poll + retry at the call site, which keeps
// cancellation (drain on SIGTERM, sender-thread shutdown) a matter of
// poll timeouts instead of signals interrupting reads.
//
// Error philosophy: setup errors (bind, listen, bad endpoint) throw
// NetError — they happen once and mean misconfiguration. Steady-state I/O
// returns IoResult — peers disconnecting is normal operation for a
// daemon, not an exception.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "xsp/net/endpoint.hpp"

namespace xsp::net {

class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Outcome of a nonblocking read/write.
enum class IoResult {
  kOk,          // >= 1 byte transferred
  kWouldBlock,  // no progress possible now; poll and retry
  kClosed,      // orderly EOF (read) — peer finished
  kError,       // connection is dead (ECONNRESET, EPIPE, ...)
};

/// RAII file-descriptor wrapper. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { close(); }

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  void close();

  /// Half-close: signal EOF to the peer while still able to read. Used by
  /// producers to say "stream complete" before waiting for the daemon to
  /// drain.
  void shutdown_write();

  /// Nonblocking read into [buf, buf+cap). n receives bytes read (only
  /// meaningful for kOk).
  IoResult read_some(char* buf, std::size_t cap, std::size_t& n);

  /// Nonblocking write of [data, data+len). n receives bytes accepted
  /// (only meaningful for kOk; may be < len). Never raises SIGPIPE.
  IoResult write_some(const char* data, std::size_t len, std::size_t& n);

  /// Block (via poll) until the fd is readable/writable or timeout_ms
  /// elapses. Returns false on timeout. timeout_ms < 0 waits forever.
  bool wait_readable(int timeout_ms) const;
  bool wait_writable(int timeout_ms) const;

 private:
  int fd_ = -1;
};

/// Connect to an endpoint with a bounded wait. Returns an invalid Socket
/// on failure and, if `error` is non-null, stores a description — failure
/// to connect is routine for RemoteSink's reconnect loop, not exceptional.
/// The returned socket is nonblocking.
Socket try_connect(const Endpoint& ep, int timeout_ms,
                   std::string* error = nullptr);

/// Bound + listening socket for either endpoint kind. UDS paths are
/// unlinked before bind (stale socket files from a killed daemon) and on
/// destruction. TCP listeners set SO_REUSEADDR; binding port 0 picks an
/// ephemeral port, visible via endpoint().port.
class Listener {
 public:
  explicit Listener(const Endpoint& ep, int backlog = 64);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Accept one pending connection (nonblocking): invalid Socket when
  /// none is waiting. The returned socket is nonblocking.
  Socket accept();

  [[nodiscard]] int fd() const { return sock_.fd(); }
  /// The endpoint actually bound (TCP port resolved if 0 was requested).
  [[nodiscard]] const Endpoint& endpoint() const { return ep_; }

 private:
  Endpoint ep_;
  Socket sock_;
};

/// Thin poll(2) wrapper: a watch set keyed by fd, rebuilt into a pollfd
/// vector per wait. O(n) per tick is the right trade at collector scale.
class Poller {
 public:
  enum Interest : short { kReadable = 1, kWritable = 2 };

  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool hangup = false;  // POLLHUP/POLLERR/POLLNVAL — treat as dead
  };

  /// Add or update the interest set for fd.
  void watch(int fd, short interest);
  void forget(int fd);
  [[nodiscard]] std::size_t watched() const { return watches_.size(); }

  /// Poll once. timeout_ms < 0 waits forever. Returns ready events
  /// (empty on timeout). The returned reference is invalidated by the
  /// next wait().
  const std::vector<Event>& wait(int timeout_ms);

 private:
  struct Watch {
    int fd;
    short interest;
  };
  std::vector<Watch> watches_;
  std::vector<Event> events_;
};

/// Reassembly buffer for length-prefixed frames arriving in arbitrary
/// chunks. Reads land in it directly: prepare(n) hands out room for n
/// more bytes after the buffered ones and commit(k) keeps the first k of
/// them. consume() advances a read offset; prepare() moves the live bytes
/// to the front only once the dead prefix is at least as large as they
/// are, so a connection trickling one byte per poll tick never triggers
/// quadratic memmove. Storage is never zero-filled: the buffer tracks its
/// own length, and growth copies only the live bytes.
class RxBuffer {
 public:
  /// Room for at least n bytes past the buffered ones. Valid until the
  /// next non-const call; bytes written there count only once committed.
  char* prepare(std::size_t n);
  /// Append the first n bytes of the last prepare() (n <= what it asked).
  void commit(std::size_t n) { end_ += n; }
  void append(std::string_view bytes);
  /// All buffered-but-unconsumed bytes, contiguous.
  [[nodiscard]] std::string_view data() const {
    return std::string_view(buf_.get() + off_, end_ - off_);
  }
  [[nodiscard]] std::size_t size() const { return end_ - off_; }
  void consume(std::size_t n);
  void clear() { off_ = end_ = 0; }

 private:
  std::unique_ptr<char[]> buf_;
  std::size_t cap_ = 0;
  std::size_t off_ = 0;  ///< first unconsumed byte
  std::size_t end_ = 0;  ///< one past the last committed byte
};

}  // namespace xsp::net
