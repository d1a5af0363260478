#include "util/task_pool.h"

#include <stdexcept>

namespace bgpcu::util {

namespace {

/// The pool whose iteration this thread is running, if any.
thread_local const TaskPool* running_pool = nullptr;

/// Marks the current thread as running `pool`'s iterations for its scope.
class RunningIn {
 public:
  explicit RunningIn(const TaskPool* pool) : previous_(running_pool) { running_pool = pool; }
  ~RunningIn() { running_pool = previous_; }
  RunningIn(const RunningIn&) = delete;
  RunningIn& operator=(const RunningIn&) = delete;

 private:
  const TaskPool* previous_;
};

}  // namespace

TaskPool::TaskPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

TaskPool::~TaskPool() {
  {
    const std::lock_guard lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void TaskPool::drain(Job& job) {
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.count) return;
    try {
      (*job.body)(i);
    } catch (...) {
      const std::lock_guard lock(job.error_mutex);
      if (!job.error) job.error = std::current_exception();
    }
    job.remaining.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void TaskPool::worker_loop() {
  std::uint64_t last_seq = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || (job_ != nullptr && job_seq_ != last_seq); });
      if (stop_) return;
      job = job_;
      last_seq = job_seq_;
      ++job->active;
    }
    {
      const RunningIn running(this);
      drain(*job);
    }
    // The active count is the lifetime guard: the submitter frees the Job
    // (stack storage) only once active drops to zero, and both the drop and
    // the submitter's check happen under mutex_, so this is a worker's last
    // touch of the job.
    {
      const std::lock_guard lock(mutex_);
      --job->active;
      done_cv_.notify_all();
    }
  }
}

void TaskPool::parallel_for(std::size_t count, const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  if (running_pool == this) {
    throw std::logic_error("TaskPool::parallel_for nested inside one of the pool's own tasks");
  }

  Job job;
  job.body = &body;
  job.count = count;
  job.remaining.store(count, std::memory_order_relaxed);

  const std::lock_guard submit(submit_mutex_);
  {
    const std::lock_guard lock(mutex_);
    job_ = &job;
    ++job_seq_;
  }
  work_cv_.notify_all();

  {
    const RunningIn running(this);
    drain(job);  // The caller is always one of the lanes.
  }

  {
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&] {
      return job.remaining.load(std::memory_order_acquire) == 0 && job.active == 0;
    });
    job_ = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
}

TaskPool& TaskPool::shared() {
  static TaskPool pool([] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? static_cast<std::size_t>(hw - 1) : std::size_t{0};
  }());
  return pool;
}

}  // namespace bgpcu::util
