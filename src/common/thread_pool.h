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
/// repository workers of a corpus scan. Tasks are plain closures; Wait()
/// blocks until every submitted task has finished.
///
/// The pool makes no ordering promises — callers that need deterministic
/// output (the scanner does) write into per-item slots and merge in item
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

}  // namespace sqlcheck
