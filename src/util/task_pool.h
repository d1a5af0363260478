// A fixed-size worker-thread pool with a blocking parallel-for primitive —
// the execution substrate for the parallel sweep kernel (core/engine.cc) and
// any future data-parallel hot path. Iteration indices are claimed
// dynamically one at a time (an atomic increment plus a type-erased call
// each), so callers pass a small count of coarse-grained tasks — e.g. one
// lane per worker, each lane iterating its own contiguous slice — rather
// than one index per element. Design constraints, in order:
//
//   1. Deterministic decomposition: parallel_for hands out iteration indices
//      0..count-1; *which thread* runs an index is scheduling-dependent, so
//      callers that need bit-reproducible output keep per-index (not
//      per-thread) state and merge in index order after the call returns.
//   2. Degenerate hardware: a pool may have zero workers (single-core
//      containers); the calling thread always participates in draining the
//      iteration space, so parallel_for makes progress with any pool size
//      and any requested count.
//   3. One-time thread cost: workers are spawned once and parked on a
//      condition variable between jobs — a sweep that runs every few seconds
//      must not pay thread creation per snapshot.
#ifndef BGPCU_UTIL_TASK_POOL_H
#define BGPCU_UTIL_TASK_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bgpcu::util {

/// Fixed worker threads + blocking parallel-for over coarse task indices.
class TaskPool {
 public:
  /// Spawns `workers` background threads. Zero is valid: every parallel_for
  /// then runs entirely on the calling thread (serial, but API-compatible).
  explicit TaskPool(std::size_t workers);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Background worker count (excludes the calling thread).
  [[nodiscard]] std::size_t workers() const noexcept { return workers_.size(); }

  /// Threads that can make progress inside parallel_for: workers + caller.
  [[nodiscard]] std::size_t parallelism() const noexcept { return workers_.size() + 1; }

  /// Runs body(i) exactly once for every i in [0, count), distributing
  /// indices dynamically across the workers and the calling thread, and
  /// blocks until all iterations finish. Concurrent parallel_for calls from
  /// different threads serialize on an internal mutex (the latecomer's
  /// caller still participates once its job starts). If any iteration
  /// throws, the first exception is rethrown on the calling thread after the
  /// remaining iterations complete. A call that would need the pool's
  /// workers from inside one of this pool's own iterations throws
  /// std::logic_error: it would wait for a job that is waiting for it.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

  /// Process-wide pool sized to the machine (hardware_concurrency - 1
  /// workers; zero on single-core hosts). Lazily constructed, never torn
  /// down before static destruction.
  static TaskPool& shared();

 private:
  /// One parallel_for invocation in flight.
  struct Job {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};       ///< Next unclaimed index.
    std::atomic<std::size_t> remaining{0};  ///< Unfinished iterations.
    std::size_t active = 0;  ///< Workers inside the job (guarded by pool mutex_).
    std::exception_ptr error;               ///< First failure, if any.
    std::mutex error_mutex;
  };

  void worker_loop();
  /// Claims and runs indices until the job is drained.
  static void drain(Job& job);

  std::mutex mutex_;                 ///< Guards job_/job_seq_/stop_.
  std::condition_variable work_cv_;  ///< Workers park here between jobs.
  std::condition_variable done_cv_;  ///< Submitter waits for remaining == 0.
  Job* job_ = nullptr;
  std::uint64_t job_seq_ = 0;
  bool stop_ = false;
  std::mutex submit_mutex_;  ///< Serializes concurrent parallel_for calls.
  std::vector<std::thread> workers_;
};

}  // namespace bgpcu::util

#endif  // BGPCU_UTIL_TASK_POOL_H
