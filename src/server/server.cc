#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "rules/rule.h"
#include "server/wire.h"

namespace sqlcheck {
namespace server {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Eviction notice pushed before the server closes an idle connection.
std::string EvictedLine(int idle_ms) {
  std::string line =
      "{\"op\": \"evicted\", \"ok\": false, \"error\": {\"code\": \"";
  line += ErrorCode::kEvicted;
  line += "\", \"message\": \"session evicted after ";
  line += std::to_string(idle_ms);
  line += "ms idle\"}}\n";
  return line;
}

}  // namespace

SqlCheckServer::SqlCheckServer(ServerOptions options) : options_(std::move(options)) {}

SqlCheckServer::~SqlCheckServer() { Stop(); }

Status SqlCheckServer::Start() {
  if (started_) return Status::Error("server already started");

  // A peer that disappears between poll and write must surface as EPIPE on
  // that one socket (handled as a silent teardown in TryFlush), never as a
  // process-killing signal. Idempotent and process-wide by design: any
  // embedding of the server needs this.
  std::signal(SIGPIPE, SIG_IGN);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::Error("socket(): " + std::string(strerror(errno)));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Error("bad host '" + options_.host + "' (IPv4 address expected)");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = Status::Error("bind(" + options_.host + ":" +
                                  std::to_string(options_.port) +
                                  "): " + std::string(strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 512) != 0) {
    Status status = Status::Error("listen(): " + std::string(strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Stop();
    return Status::Error("epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // id 0 = the listener
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  epoll_event wake{};
  wake.events = EPOLLIN;
  wake.data.u64 = UINT64_MAX;  // sentinel id for the doorbell
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wake);

  pool_ = std::make_unique<ThreadPool>(options_.workers);
  stop_.store(false);
  started_ = true;
  loop_ = std::thread([this] { EventLoop(); });
  return Status::Ok();
}

void SqlCheckServer::Stop() {
  if (started_) {
    stop_.store(true);
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    loop_.join();
    // Workers may still hold connections; drain them before tearing the
    // connection table down.
    pool_->Wait();
    pool_.reset();
    for (auto& [id, conn] : conns_) {
      if (conn->fd >= 0) ::close(conn->fd);
      conn->fd = -1;
    }
    conns_.clear();
    started_ = false;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
}

void SqlCheckServer::EventLoop() {
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  int64_t last_sweep_ms = NowMs();
  // Sweep granularity: fine enough that eviction (or a stall disconnect)
  // lands within ~1/4 of its configured window, coarse enough to stay
  // negligible. Either guard being on turns the sweep on.
  int sweep_interval_ms = -1;
  auto fold_interval = [&sweep_interval_ms](int window_ms) {
    if (window_ms <= 0) return;
    int interval = std::max(10, std::min(window_ms / 4, 1000));
    if (sweep_interval_ms < 0 || interval < sweep_interval_ms) {
      sweep_interval_ms = interval;
    }
  };
  fold_interval(options_.idle_evict_ms);
  fold_interval(options_.write_stall_ms);

  while (!stop_.load()) {
    // Sleep no later than the earliest pending deadline, so a queued
    // request expires on time even on an otherwise silent socket set.
    int timeout = sweep_interval_ms;
    if (!deadlines_.empty()) {
      const int64_t until = std::max<int64_t>(0, deadlines_.front().first - NowMs());
      if (timeout < 0 || until < timeout) timeout = static_cast<int>(until);
    }
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout);
    if (n < 0 && errno != EINTR) break;

    for (int i = 0; i < n; ++i) {
      uint64_t id = events[i].data.u64;
      if (id == 0) {
        AcceptPending();
        continue;
      }
      if (id == UINT64_MAX) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // raced with a close
      std::shared_ptr<Conn> conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        conn->peer_eof = true;
      }
      if (events[i].events & EPOLLIN) ReadFrom(conn);
      if (conns_.count(id) == 0) continue;  // ReadFrom may close
      if (events[i].events & (EPOLLOUT | EPOLLHUP | EPOLLERR)) TryFlush(conn);
    }

    // Doorbell-marked connections: fresh worker output (or state changes)
    // to flush. Taken every iteration, not only on wake events, so a wake
    // coalesced into another event is never lost.
    std::vector<uint64_t> dirty;
    {
      std::lock_guard<std::mutex> lock(dirty_mu_);
      dirty.swap(dirty_);
    }
    for (uint64_t id : dirty) {
      auto it = conns_.find(id);
      if (it != conns_.end()) TryFlush(it->second);
    }

    if (!deadlines_.empty()) ExpireDeadlines(NowMs());

    if (sweep_interval_ms > 0) {
      int64_t now = NowMs();
      if (now - last_sweep_ms >= sweep_interval_ms) {
        last_sweep_ms = now;
        SweepIdle(now);
      }
    }
  }
}

void SqlCheckServer::AcceptPending() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error — epoll will re-arm

    // Chaos seam: a dropped accept. The client sees a reset, the server just
    // keeps serving everyone else.
    if (SQLCHECK_FAILPOINT("socket_accept")) {
      gauges_.connections_rejected.fetch_add(1);
      ::close(fd);
      continue;
    }

    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    if (conns_.size() >= options_.max_sessions) {
      // Full house: explain and close. The error line is tiny and the
      // socket buffer fresh, so the nonblocking write will take it.
      gauges_.connections_rejected.fetch_add(1);
      std::string line = ErrorLine(
          ErrorCode::kCapacity,
          "server at capacity (" + std::to_string(options_.max_sessions) + " sessions)");
      [[maybe_unused]] ssize_t n = ::write(fd, line.data(), line.size());
      ::close(fd);
      continue;
    }

    auto conn = std::make_shared<Conn>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->last_activity_ms = NowMs();
    conn->handler = std::make_unique<SessionHandler>(
        options_.analysis, options_.include_fixes, &gauges_);
    conn->out = HelloLine(kAntiPatternCount);
    conns_.emplace(conn->id, conn);
    gauges_.connections_accepted.fetch_add(1);
    gauges_.active_sessions.store(conns_.size());

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    TryFlush(conn);
  }
}

void SqlCheckServer::ReadFrom(const std::shared_ptr<Conn>& conn) {
  // Chaos seam: a skipped read round. Level-triggered epoll redelivers the
  // readiness on the next iteration, so the bytes are only delayed — the
  // stream (and every response) is byte-identical.
  if (SQLCHECK_FAILPOINT("socket_read")) return;

  // Write backpressure: while this tenant's response backlog is over the
  // cap, stop pulling new requests off its socket. TryFlush resumes the
  // read side once the backlog halves; TCP flow control propagates the
  // pause to the client.
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->out.size() > options_.max_write_buffer_bytes) {
      if (!conn->epollin_paused && conn->fd >= 0) {
        conn->epollin_paused = true;
        epoll_event ev{};
        ev.events = conn->epollout_armed ? EPOLLOUT : 0u;
        ev.data.u64 = conn->id;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
      }
      return;
    }
  }

  char buffer[64 * 1024];
  bool got_bytes = false;
  while (true) {
    ssize_t n = ::read(conn->fd, buffer, sizeof(buffer));
    if (n > 0) {
      got_bytes = true;
      gauges_.bytes_in.fetch_add(static_cast<uint64_t>(n));
      conn->in.append(buffer, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      conn->peer_eof = true;  // half-close: finish pending work, then close
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn->peer_eof = true;  // hard error: flush what we can, then close
    break;
  }
  if (got_bytes) {
    conn->last_activity_ms = NowMs();
    QueueLines(conn);
  }
  TryFlush(conn);
}

void SqlCheckServer::QueueLines(const std::shared_ptr<Conn>& conn) {
  std::vector<std::string> lines;
  std::string oversize_errors;
  size_t start = 0;
  while (true) {
    size_t nl = conn->in.find('\n', start);
    if (nl == std::string::npos) break;
    std::string_view line(conn->in.data() + start, nl - start);
    start = nl + 1;
    if (conn->discarding) {
      // Tail of an oversized line: swallow through its newline, resync.
      conn->discarding = false;
      continue;
    }
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.find_first_not_of(" \t") == std::string_view::npos) continue;
    if (line.size() > options_.max_line_bytes) {
      oversize_errors += ErrorLine(
          ErrorCode::kLineTooLong,
          "request line exceeds " + std::to_string(options_.max_line_bytes) + " bytes");
      continue;
    }
    lines.emplace_back(line);
  }
  conn->in.erase(0, start);
  // An unterminated fragment past the cap cannot become a valid request;
  // answer now and discard until the next newline arrives.
  if (!conn->discarding && conn->in.size() > options_.max_line_bytes) {
    oversize_errors += ErrorLine(
        ErrorCode::kLineTooLong,
        "request line exceeds " + std::to_string(options_.max_line_bytes) + " bytes");
    conn->in.clear();
    conn->in.shrink_to_fit();
    conn->discarding = true;
  }

  if (lines.empty() && oversize_errors.empty()) return;
  const int64_t now_ms = NowMs();
  bool dispatch = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->out += oversize_errors;
    for (auto& l : lines) {
      // Admission control: past the global queue-depth cap the request is
      // shed here — cheap, before any parsing — with a backoff hint. The
      // refusal is per request, not per connection: the tenant's already-
      // admitted work proceeds and later lines are admitted again as the
      // queue drains.
      if (options_.max_queue_depth > 0 &&
          queued_requests_.load(std::memory_order_relaxed) >=
              options_.max_queue_depth) {
        gauges_.requests_shed.fetch_add(1);
        conn->out += OverloadedLine(RetryAfterMs());
        continue;
      }
      PendingRequest request;
      request.deadline_ms =
          options_.request_deadline_ms > 0 ? now_ms + options_.request_deadline_ms : 0;
      request.line = std::move(l);
      if (request.deadline_ms > 0) {
        // QueueLines runs on the event thread, which owns deadlines_.
        deadlines_.emplace_back(request.deadline_ms, conn->id);
      }
      conn->pending.push_back(std::move(request));
      queued_requests_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!conn->in_flight && !conn->pending.empty()) {
      conn->in_flight = true;
      dispatch = true;
    }
  }
  if (dispatch) {
    std::shared_ptr<Conn> ref = conn;
    pool_->Submit([this, ref]() mutable { ProcessQueue(std::move(ref)); });
  }
}

uint64_t SqlCheckServer::RetryAfterMs() const {
  uint64_t avg_us = gauges_.avg_request_us.load(std::memory_order_relaxed);
  if (avg_us == 0) avg_us = 1000;  // no samples yet: assume a 1ms request
  const uint64_t depth = queued_requests_.load(std::memory_order_relaxed);
  const uint64_t workers =
      static_cast<uint64_t>(ThreadPool::ResolveParallelism(options_.workers));
  const uint64_t ms = avg_us * (depth + 1) / workers / 1000;
  return std::max<uint64_t>(1, std::min<uint64_t>(ms, 30000));
}

void SqlCheckServer::ExpireDeadlines(int64_t now_ms) {
  while (!deadlines_.empty() && deadlines_.front().first <= now_ms) {
    const uint64_t conn_id = deadlines_.front().second;
    deadlines_.pop_front();
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) continue;  // closed (connection ids are never reused)
    const std::shared_ptr<Conn>& conn = it->second;
    size_t expired = 0;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      // A connection's queue is in admission order, hence deadline order:
      // expired requests sit at its front. A request a worker already
      // claimed is no longer queued and observes its deadline cooperatively
      // inside the session; its entry here finds a later deadline at the
      // front, or an empty queue, and expires nothing.
      while (!conn->pending.empty() && conn->pending.front().deadline_ms <= now_ms) {
        conn->pending.pop_front();
        conn->out += ExpiredLine();
        ++expired;
      }
    }
    if (expired == 0) continue;
    queued_requests_.fetch_sub(expired, std::memory_order_relaxed);
    gauges_.deadlines_expired.fetch_add(expired);
    TryFlush(conn);
  }
}

std::string SqlCheckServer::ExpiredLine() const {
  return ErrorLine(ErrorCode::kDeadlineExceeded,
                   "request deadline (" + std::to_string(options_.request_deadline_ms) +
                       "ms) expired before processing began");
}

void SqlCheckServer::ProcessQueue(std::shared_ptr<Conn> conn) {
  while (true) {
    PendingRequest request;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->pending.empty() || conn->want_close) {
        conn->in_flight = false;
        break;
      }
      request = std::move(conn->pending.front());
      conn->pending.pop_front();
    }
    queued_requests_.fetch_sub(1, std::memory_order_relaxed);

    std::string response;
    const auto start = std::chrono::steady_clock::now();
    if (request.deadline_ms > 0 && NowMs() >= request.deadline_ms) {
      // Expired while queued but claimed before the event thread expired
      // it: the same answer, without starting the work.
      gauges_.deadlines_expired.fetch_add(1);
      response = ExpiredLine();
    } else {
      response = conn->handler->HandleLine(request.line, request.deadline_ms);
      // Service-time EWMA (alpha 1/8) feeding retry_after_ms. Lost updates
      // between racing workers just blend samples — it is a backoff hint,
      // not an invariant. Samples round up to whole microseconds, so every
      // served request counts as at least 1 us.
      const std::chrono::nanoseconds elapsed = std::chrono::steady_clock::now() - start;
      const uint64_t sample_us = (static_cast<uint64_t>(elapsed.count()) + 999) / 1000;
      const uint64_t prev = gauges_.avg_request_us.load(std::memory_order_relaxed);
      gauges_.avg_request_us.store(prev == 0 ? sample_us : (prev * 7 + sample_us) / 8,
                                   std::memory_order_relaxed);
    }
    gauges_.requests.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->out += response;
      if (conn->handler->quit()) conn->want_close = true;
    }
    NotifyDirty(conn->id);
  }
  NotifyDirty(conn->id);  // final state may allow the close to complete
}

void SqlCheckServer::TryFlush(const std::shared_ptr<Conn>& conn) {
  if (conn->fd < 0) return;
  bool close_now = false;
  bool want_out = false;
  bool made_progress = false;
  size_t backlog = 0;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    while (!conn->out.empty()) {
      // Chaos seam: a simulated EAGAIN — identical to a momentarily full
      // socket buffer. EPOLLOUT re-arms below and the bytes go out on a
      // later round, so responses stay byte-identical, just later.
      if (SQLCHECK_FAILPOINT("socket_write")) break;
      ssize_t n = ::write(conn->fd, conn->out.data(), conn->out.size());
      if (n > 0) {
        made_progress = true;
        gauges_.bytes_out.fetch_add(static_cast<uint64_t>(n));
        conn->out.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_now = true;  // EPIPE/ECONNRESET: the peer is gone
      break;
    }
    backlog = conn->out.size();
    want_out = backlog > 0 && !close_now;
    // Stall tracking for the slow-client sweep: the clock starts when a
    // flush attempt leaves bytes behind without writing any, and resets the
    // moment anything goes out.
    if (made_progress || backlog == 0) {
      conn->write_stalled_since_ms = 0;
    } else if (want_out && conn->write_stalled_since_ms == 0) {
      conn->write_stalled_since_ms = NowMs();
    }
    if (!close_now && conn->out.empty()) {
      bool drained = conn->pending.empty() && !conn->in_flight;
      if (conn->want_close && drained) close_now = true;
      if (conn->peer_eof && drained) close_now = true;
    }
  }
  if (close_now) {
    CloseConn(conn->id);
    return;
  }
  // Resume the read side once the backlog halves (hysteresis so a client
  // hovering at the cap doesn't thrash the epoll registration).
  bool paused = conn->epollin_paused;
  if (paused && backlog <= options_.max_write_buffer_bytes / 2) paused = false;
  if (want_out != conn->epollout_armed || paused != conn->epollin_paused) {
    conn->epollout_armed = want_out;
    conn->epollin_paused = paused;
    epoll_event ev{};
    ev.events = (paused ? 0u : EPOLLIN) | (want_out ? EPOLLOUT : 0u);
    ev.data.u64 = conn->id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }
}

void SqlCheckServer::CloseConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  std::shared_ptr<Conn> conn = it->second;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->want_close = true;  // a still-running worker stops at its next pop
    // Unstarted requests die with the connection; release their admission
    // slots or the global queue-depth gate would leak closed-tenant weight.
    queued_requests_.fetch_sub(conn->pending.size(), std::memory_order_relaxed);
    conn->pending.clear();
  }
  if (conn->fd >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    conn->fd = -1;
  }
  conns_.erase(it);
  gauges_.active_sessions.store(conns_.size());
}

void SqlCheckServer::SweepIdle(int64_t now_ms) {
  std::vector<std::shared_ptr<Conn>> victims;
  std::vector<uint64_t> stalled;
  for (auto& [id, conn] : conns_) {
    // Slow-client guard first: a wedged peer holds response bytes (and a
    // whole session) hostage; there is nothing to flush to it, so this is a
    // hard close, not an eviction notice.
    if (options_.write_stall_ms > 0) {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->write_stalled_since_ms != 0 &&
          now_ms - conn->write_stalled_since_ms >= options_.write_stall_ms) {
        stalled.push_back(id);
        continue;
      }
    }
    if (options_.idle_evict_ms <= 0) continue;
    if (now_ms - conn->last_activity_ms < options_.idle_evict_ms) continue;
    std::lock_guard<std::mutex> lock(conn->mu);
    // Only truly idle tenants: queued or in-flight work counts as activity.
    if (conn->in_flight || !conn->pending.empty()) continue;
    conn->out += EvictedLine(options_.idle_evict_ms);
    conn->want_close = true;
    victims.push_back(conn);
  }
  for (uint64_t id : stalled) {
    gauges_.slow_client_disconnects.fetch_add(1);
    CloseConn(id);
  }
  for (auto& conn : victims) {
    gauges_.evictions.fetch_add(1);
    TryFlush(conn);  // closes once the notice drains
  }
}

void SqlCheckServer::NotifyDirty(uint64_t id) {
  {
    std::lock_guard<std::mutex> lock(dirty_mu_);
    dirty_.push_back(id);
  }
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

}  // namespace server
}  // namespace sqlcheck
