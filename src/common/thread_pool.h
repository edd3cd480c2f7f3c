#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sqlcheck {

/// \brief A fixed-size worker pool: the server's analysis workers and the
/// file shards of a corpus scan. Tasks are plain closures; Wait() blocks
/// until every submitted task has finished.
///
/// The pool makes no ordering promises — callers that need deterministic
/// output (the scanner does) write into pre-sharded slots and merge in shard
/// order after Wait().
class ThreadPool {
 public:
  /// Creates `threads` workers; `threads <= 0` uses the hardware concurrency.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task. Tasks must not throw.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is running.
  void Wait();

  /// Maps a requested worker count (server --workers, scan --jobs) to a
  /// real one: values <= 0 mean "use all hardware threads"; anything else
  /// is taken literally.
  static int ResolveParallelism(int requested);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;   ///< Signals workers: work or shutdown.
  std::condition_variable idle_cv_;   ///< Signals Wait(): everything drained.
  size_t in_flight_ = 0;              ///< Tasks popped but not yet finished.
  bool stop_ = false;
};

/// \brief Fork/join helper over an index range: splits [0, n) into one
/// contiguous shard per `pool` worker (never more shards than items) and runs
/// `body(shard, begin, end)` for each on the pool. Shard boundaries depend
/// only on n and the pool size, so per-shard results merged in shard order
/// are deterministic. Without a pool the body runs inline as shard 0.
void ParallelShards(size_t n, ThreadPool* pool,
                    const std::function<void(int shard, size_t begin, size_t end)>& body);

}  // namespace sqlcheck
