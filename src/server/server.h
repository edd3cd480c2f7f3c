#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/options.h"
#include "server/handler.h"

namespace sqlcheck {
namespace server {

/// \brief Deployment knobs for the sqlcheck-server daemon (the CLI flags of
/// tools/sqlcheck_server.cc map onto these 1:1; docs/OPERATIONS.md explains
/// sizing). Per-tenant analysis/quota configuration rides inside `analysis`
/// (SqlCheckOptions::limits).
struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 8617;  ///< 0 = ephemeral; SqlCheckServer::port() reports it.
  /// Analysis worker threads (a ThreadPool); <= 0 = hardware threads.
  int workers = 0;
  /// Concurrent sessions (= connections) before new arrivals are turned
  /// away with a `capacity` error.
  size_t max_sessions = 10000;
  /// Evict sessions idle for this long (0 = never). Eviction sends an
  /// `evicted` notice and closes the connection, releasing every byte the
  /// tenant held (arena, memos, interner).
  int idle_evict_ms = 0;
  /// Framing guard: a request line longer than this is answered with
  /// `line_too_long` and discarded (the connection survives — the stream
  /// resynchronizes at the next newline).
  size_t max_line_bytes = 1 << 20;
  /// Emit the extended fix-verification fields on finding lines (the CLI's
  /// --fixes surface).
  bool include_fixes = false;
  /// Per-request wall-clock deadline in milliseconds (0 = off). A request
  /// still queued when it passes is answered `deadline_exceeded` without
  /// running (the event thread expires it as the deadline passes); a running
  /// `check` stops between statements and answers `deadline_exceeded` with
  /// the partial ingest intact.
  int request_deadline_ms = 0;
  /// Load-shedding admission cap on requests queued across all connections
  /// (0 = off). A request line arriving past the cap is refused immediately
  /// with a retryable `overloaded` error carrying `retry_after_ms` — it
  /// never reaches a worker or the session.
  size_t max_queue_depth = 0;
  /// Write-backpressure threshold: once a connection's unsent response bytes
  /// exceed this, the server stops reading from that socket (the client
  /// cannot pipeline unboundedly faster than it drains responses); reading
  /// resumes when the backlog halves.
  size_t max_write_buffer_bytes = 8u << 20;
  /// Slow-client guard (0 = off): a connection whose response backlog makes
  /// no write progress for this long is disconnected, releasing its session.
  int write_stall_ms = 0;
  /// Per-tenant session configuration: rule selection and the SessionLimits
  /// quotas. Concurrency comes from sessions running on the worker pool.
  SqlCheckOptions analysis;
};

/// \brief The multi-tenant streaming analysis daemon: one epoll event loop
/// (acceptor + socket I/O + idle sweep) feeding a ThreadPool of analysis
/// workers, with one SessionHandler — hence one AnalysisSession — per
/// connection. Requests on one connection are processed strictly in order
/// (at most one in-flight handler call per tenant); different tenants run
/// concurrently on the pool.
///
/// Lifetime/ownership: the event-loop thread owns sockets and epoll
/// registration; workers own a tenant's handler only while that tenant's
/// queue is theirs (`in_flight`); response buffers are handed between the
/// two under a per-connection mutex. Start() spawns the loop; Stop() (or
/// destruction) drains the pool and closes every connection.
class SqlCheckServer {
 public:
  explicit SqlCheckServer(ServerOptions options);
  ~SqlCheckServer();

  SqlCheckServer(const SqlCheckServer&) = delete;
  SqlCheckServer& operator=(const SqlCheckServer&) = delete;

  /// Binds, listens, and spawns the event loop. Non-OK on bind/listen
  /// failure (address in use, bad host, ...).
  Status Start();

  /// Shuts down: stops accepting, joins the event loop, drains workers, and
  /// closes every connection. Idempotent.
  void Stop();

  /// The bound port (resolves port 0 to the kernel's pick after Start()).
  uint16_t port() const { return port_; }
  const ServerOptions& options() const { return options_; }
  const ServerGauges& gauges() const { return gauges_; }

 private:
  /// One admitted request awaiting a worker. `deadline_ms` (0 = none) lets
  /// the event thread expire it while queued and rides to the handler so a
  /// running check stops cooperatively.
  struct PendingRequest {
    int64_t deadline_ms = 0;
    std::string line;
  };

  struct Conn {
    uint64_t id = 0;
    int fd = -1;
    /// Read-side assembly buffer and oversize-resync flag (event thread).
    std::string in;
    bool discarding = false;
    bool peer_eof = false;
    /// Milliseconds timestamp of the last bytes received (idle sweeps read
    /// it from the event thread; monotonic clock).
    int64_t last_activity_ms = 0;
    bool epollout_armed = false;
    /// Read side unsubscribed from epoll: the response backlog crossed
    /// max_write_buffer_bytes (event thread only).
    bool epollin_paused = false;

    /// Handed between event thread and the one in-flight worker under `mu`.
    std::mutex mu;
    std::deque<PendingRequest> pending;  ///< Admitted requests, in order.
    bool in_flight = false;              ///< A worker owns this tenant's queue.
    std::string out;                     ///< Response bytes awaiting the socket.
    bool want_close = false;             ///< Close once `out` drains.
    /// When the backlog first made no write progress (0 = flowing); the
    /// sweep disconnects past write_stall_ms.
    int64_t write_stalled_since_ms = 0;

    std::unique_ptr<SessionHandler> handler;
  };

  void EventLoop();
  void AcceptPending();
  void ReadFrom(const std::shared_ptr<Conn>& conn);
  /// Splits conn->in into complete lines, enforcing max_line_bytes, and
  /// queues them; dispatches a worker if none owns the queue.
  void QueueLines(const std::shared_ptr<Conn>& conn);
  /// Worker side: drains the tenant's queue one request at a time.
  void ProcessQueue(std::shared_ptr<Conn> conn);
  /// Nonblocking write of conn->out; arms/disarms EPOLLOUT; closes when
  /// drained and the connection is done. Event thread only.
  void TryFlush(const std::shared_ptr<Conn>& conn);
  void CloseConn(uint64_t id);
  void SweepIdle(int64_t now_ms);
  /// Worker -> event thread doorbell: marks `id` dirty and wakes epoll.
  void NotifyDirty(uint64_t id);
  /// Expires still-queued requests whose deadline passed (event thread;
  /// requests a worker already claimed are skipped).
  void ExpireDeadlines(int64_t now_ms);
  /// The `deadline_exceeded` line for a request that expired before
  /// processing began (event-thread expiry and claim time alike).
  std::string ExpiredLine() const;
  /// Backoff hint for overloaded refusals: queue depth x the service-time
  /// EWMA, spread over the worker count.
  uint64_t RetryAfterMs() const;

  ServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread loop_;
  std::unique_ptr<ThreadPool> pool_;
  ServerGauges gauges_;

  uint64_t next_conn_id_ = 1;  ///< Event thread only (epoll keys by id, not fd).
  std::unordered_map<uint64_t, std::shared_ptr<Conn>> conns_;  ///< Event thread only.

  std::mutex dirty_mu_;
  std::vector<uint64_t> dirty_;  ///< Conn ids with fresh output to flush.

  /// (deadline, connection id) of every admitted request with a deadline, in
  /// admission order. All deadlines share one offset, so admission order is
  /// deadline order and the front is the earliest. Event thread only
  /// (QueueLines pushes, ExpireDeadlines pops).
  std::deque<std::pair<int64_t, uint64_t>> deadlines_;
  /// Requests admitted but not yet started, across all connections — the
  /// load-shedding admission gate (QueueLines bumps, workers/expiry drop).
  std::atomic<size_t> queued_requests_{0};
};

}  // namespace server
}  // namespace sqlcheck
