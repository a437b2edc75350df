// Event-driven HTTP/1.1 server: epoll readiness loop, non-blocking sockets.
//
// Connection I/O never blocks a thread. One acceptor thread polls the
// listening socket, sheds past max_connections (503 + Retry-After), and
// hands accepted fds round-robin to a small worker ring of event loops —
// each loop owns an epoll set, a timer wheel, and the per-connection state
// machines (incremental request parse on readable, buffered partial writes
// on writable). Slow clients therefore cost memory, not threads: tens of
// thousands of idle keep-alive connections hold fds and parser buffers
// while loop_threads stays at a handful.
//
// Handlers still BLOCK — a synchronous decompose runs for seconds — so a
// parsed request is dispatched to the handler pool: a private
// util::Executor of io_threads workers, separate from the compute executor
// that runs solves, so a handler waiting on a solve or a socket never holds
// a compute worker. Its idle workers sleep until a request arrives. While a
// request is dispatched its connection is quiescent in epoll; the handler's
// completion posts the serialised response back to the owning loop through
// an eventfd-woken queue. A handler that throws costs one 500.
//
// Write interest (EPOLLOUT, level-triggered) is armed only while a response
// is partially flushed and disarmed the moment the buffer drains, so idle
// keep-alive connections never spin the loop.
//
// Timeouts run on a per-loop timer wheel instead of SO_RCVTIMEO (nothing
// blocks in recv any more):
//   - idle_timeout_seconds    keep-alive connection with no request bytes
//   - header_timeout_seconds  mid-request (slow-loris drip): reaped with 408
//   - write_timeout_seconds   response partially flushed to a stalled
//                             reader: abandoned, slot freed
//
// Shutdown: Stop() stops the acceptor, closes idle connections, lets
// dispatched handlers finish and FLUSHES their in-flight responses (bounded
// by the write timeout), joins the loops, then destroys the handler pool.
// Idempotent; called from the destructor.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/http.h"
#include "util/executor.h"
#include "util/socket.h"
#include "util/status.h"

namespace htd::net {

namespace internal {
class EventLoop;
}  // namespace internal

class HttpServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 = kernel-assigned ephemeral port (tests); read it back via port().
    int port = 0;
    int backlog = 64;
    /// Workers of the handler pool. A synchronous request blocks one for
    /// its full duration (including solves), so size ≥ the expected
    /// concurrent REQUEST count. Idle connections do not pin these —
    /// connection count is bounded by max_connections alone.
    int io_threads = 8;
    /// Event-loop worker ring: threads running epoll sets. Connection I/O
    /// is cheap; a few loops drive tens of thousands of sockets.
    int loop_threads = 2;
    /// Live-connection bound: connections accepted beyond it are answered
    /// 503 + Retry-After and closed on the acceptor thread. This is the
    /// transport-level half of load shedding — independent of io_threads
    /// since the epoll core stopped pinning a thread per connection.
    int max_connections = 64;
    /// Retry-After value on connection-level 503s.
    int retry_after_seconds = 1;
    /// Keep-alive connections idle (no request bytes) longer than this are
    /// closed.
    double idle_timeout_seconds = 30.0;
    /// A connection mid-request-head or mid-body making no progress past
    /// this is reaped with 408 (slow-loris guard). 0 = use idle timeout.
    double header_timeout_seconds = 10.0;
    /// A partially-flushed response stalled longer than this (peer not
    /// reading) is abandoned and the connection closed.
    double write_timeout_seconds = 30.0;
    HttpRequestParser::Limits limits;
  };

  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Live-connection states, sampled for the htd_connections{state=} gauges.
  struct ConnectionCounts {
    uint64_t idle = 0;        ///< keep-alive, between requests
    uint64_t reading = 0;     ///< request bytes partially received
    uint64_t dispatched = 0;  ///< handler running on the handler pool
    uint64_t writing = 0;     ///< response partially flushed
    uint64_t total() const { return idle + reading + dispatched + writing; }
  };

  HttpServer(Options options, Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, starts the loop ring and the acceptor thread.
  util::Status Start();
  /// Stops accepting, drains in-flight responses, joins loops + acceptor.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (valid after a successful Start()).
  int port() const { return port_; }
  /// Connections accepted over the server's lifetime.
  uint64_t connections_accepted() const {
    return connections_.load(std::memory_order_relaxed);
  }
  /// Connections refused with 503 because max_connections was reached.
  uint64_t connections_shed() const {
    return connections_shed_.load(std::memory_order_relaxed);
  }
  /// Connections reaped by a timeout (idle, header/slow-loris, or write).
  uint64_t connections_reaped() const {
    return connections_reaped_.load(std::memory_order_relaxed);
  }
  /// accept() failures after a readable poll (EMFILE under fd exhaustion is
  /// the classic); each costs one acceptor backoff instead of a spin.
  uint64_t accept_failures() const {
    return accept_failures_.load(std::memory_order_relaxed);
  }
  /// Current per-state connection counts across the loop ring.
  ConnectionCounts connection_counts() const;

 private:
  friend class internal::EventLoop;

  void AcceptLoop();
  /// Called by a loop when a connection closes (frees an admission slot).
  void OnConnectionClosed();

  Options options_;
  Handler handler_;
  util::Socket listener_;
  int port_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> connections_shed_{0};
  std::atomic<uint64_t> connections_reaped_{0};
  std::atomic<uint64_t> accept_failures_{0};
  /// Live connections: incremented by the acceptor before hand-off,
  /// decremented by the owning loop on close. The shed check reads it.
  std::atomic<int64_t> live_connections_{0};
  std::thread acceptor_;
  std::vector<std::unique_ptr<internal::EventLoop>> loops_;
  /// The handler pool; lives from Start() to the end of Stop().
  std::unique_ptr<util::Executor> handlers_;
};

}  // namespace htd::net
