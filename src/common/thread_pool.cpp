#include "common/thread_pool.h"

#include <algorithm>
#include <cstdio>

#include "common/flags.h"

namespace reese {

u32 resolve_job_count(u32 requested) {
  if (requested > 0 && requested <= kMaxJobRequest) return requested;
  if (requested > kMaxJobRequest) {
    // Almost certainly a negative value cast through u32 somewhere up the
    // call chain; spawning ~4e9 threads is never what anyone meant.
    std::fprintf(stderr,
                 "jobs: request %u is out of range (max %u); using hardware "
                 "concurrency\n",
                 requested, kMaxJobRequest);
  }
  const u64 env = env_positive("REESE_JOBS", 0);
  if (env > kMaxJobRequest) {
    std::fprintf(stderr,
                 "jobs: REESE_JOBS=%llu is above %u; using hardware "
                 "concurrency\n",
                 static_cast<unsigned long long>(env), kMaxJobRequest);
  } else if (env != 0) {
    return static_cast<u32>(env);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(u32 workers) {
  const u32 resolved = resolve_job_count(workers);
  threads_.reserve(resolved - 1);
  for (u32 i = 0; i + 1 < resolved; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void ThreadPool::parallel_for(usize count,
                              const std::function<void(usize)>& fn) {
  if (count == 0) return;
  if (threads_.empty()) {
    // Single-worker pool: plain sequential loop, no synchronization.
    for (usize i = 0; i < count; ++i) fn(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    next_.store(0, std::memory_order_relaxed);
    done_.store(0, std::memory_order_relaxed);
    total_ = count;
    ++generation_;
  }
  wake_cv_.notify_all();
  run_share();  // the calling thread is worker 0
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] {
    return done_.load(std::memory_order_acquire) == total_ && active_ == 0;
  });
  fn_ = nullptr;
}

void ThreadPool::run_share() {
  const std::function<void(usize)>& fn = *fn_;
  const usize total = total_;
  while (true) {
    const usize index = next_.fetch_add(1, std::memory_order_relaxed);
    if (index >= total) return;
    fn(index);
    if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
      done_cv_.notify_one();
    }
  }
}

void ThreadPool::worker_loop() {
  u64 seen_generation = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_cv_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
      ++active_;
    }
    run_share();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
    }
    done_cv_.notify_one();
  }
}

TaskQueue::TaskQueue(u32 workers, usize capacity) : capacity_(capacity) {
  const u32 resolved = resolve_job_count(workers);
  threads_.reserve(resolved);
  for (u32 i = 0; i < resolved; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

TaskQueue::~TaskQueue() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Admitted tasks always run: drain before stopping the workers.
    idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

bool TaskQueue::try_enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_ || queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(task));
  }
  wake_cv_.notify_one();
  return true;
}

void TaskQueue::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

usize TaskQueue::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

u32 TaskQueue::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

void TaskQueue::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_;
      if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace reese
