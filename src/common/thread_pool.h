// A small fixed-size thread pool with an index-claiming parallel_for.
//
// Built for the experiment grid runner: a batch of independent, similarly
// sized jobs (one simulation per (workload, model, seed) cell) is fanned
// across hardware threads. Work distribution is dynamic — every worker
// (including the calling thread) claims the next unstarted index from one
// atomic counter, so a worker that finishes early immediately steals from
// the remaining tail instead of idling behind a static partition.
//
// Determinism contract: parallel_for imposes no ordering on job execution,
// so jobs must not share mutable state; each writes only its own result
// slot. Under that contract the results are bit-identical to a sequential
// loop regardless of worker count (see tests/experiment_parallel_test.cpp).
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.h"

namespace reese {

/// Upper bound on a believable explicit worker-count request. Anything
/// larger is treated as garbage (the classic bug: a negative CLI value
/// cast through u32 lands near 4·10⁹ and the pool tries to spawn that many
/// threads) and normalized to auto with a warning.
inline constexpr u32 kMaxJobRequest = 1024;

/// Resolve a worker-count request: any positive sane `requested` wins;
/// 0 means auto — $REESE_JOBS if set, else hardware_concurrency().
/// Out-of-range requests and a $REESE_JOBS value that is not an integer in
/// [1, kMaxJobRequest] warn on stderr and fall back to hardware
/// concurrency. Always at least 1.
u32 resolve_job_count(u32 requested);

class ThreadPool {
 public:
  /// `workers` is the total parallelism including the calling thread, so
  /// the pool spawns `workers - 1` threads; 1 means "run everything inline"
  /// (no threads at all). 0 resolves via resolve_job_count.
  explicit ThreadPool(u32 workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (spawned threads + the calling thread).
  u32 worker_count() const { return static_cast<u32>(threads_.size()) + 1; }

  /// Run fn(0) .. fn(count - 1), each exactly once, across the pool and the
  /// calling thread; returns when all have finished. Not reentrant and not
  /// thread-safe — one batch at a time, driven from the owning thread.
  void parallel_for(usize count, const std::function<void(usize)>& fn);

 private:
  void run_share();
  void worker_loop();

  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable wake_cv_;   ///< signals workers: new batch / stop
  std::condition_variable done_cv_;   ///< signals the caller: batch drained
  const std::function<void(usize)>* fn_ = nullptr;
  std::atomic<usize> next_{0};
  std::atomic<usize> done_{0};
  usize total_ = 0;
  u64 generation_ = 0;  ///< bumped per batch so workers wake exactly once
  u32 active_ = 0;      ///< pool workers currently inside run_share
  bool stop_ = false;
};

/// A bounded FIFO task queue drained by a fixed set of worker threads —
/// the long-lived sibling of ThreadPool's one-batch parallel_for, built
/// for reesed's job manager (sim/service.h): jobs arrive one at a time
/// over HTTP and must be admitted or refused immediately.
///
/// Admission control is the point: try_enqueue refuses (returns false)
/// when `capacity` tasks are already waiting, which the service maps to
/// HTTP 429 backpressure. Tasks already admitted always run — drain()
/// blocks until the queue is empty and every worker is idle (reesed's
/// SIGTERM path). The destructor drains too, so an admitted job is never
/// silently dropped.
class TaskQueue {
 public:
  /// Spawns `workers` dedicated threads (resolved via resolve_job_count;
  /// unlike ThreadPool the calling thread is NOT a worker — it stays free
  /// to accept connections). `capacity` bounds the *waiting* queue;
  /// running tasks do not count against it.
  TaskQueue(u32 workers, usize capacity);
  ~TaskQueue();

  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  /// Admit a task, or refuse it when `capacity` tasks are already queued
  /// (or the queue is stopping). Never blocks.
  bool try_enqueue(std::function<void()> task);

  /// Block until every admitted task has finished and all workers are
  /// idle. New tasks may still be admitted afterwards.
  void drain();

  usize queued() const;
  u32 running() const;
  u32 worker_count() const { return static_cast<u32>(threads_.size()); }
  usize capacity() const { return capacity_; }

 private:
  void worker_loop();

  const usize capacity_;
  mutable std::mutex mutex_;
  std::condition_variable wake_cv_;  ///< workers: task available / stop
  std::condition_variable idle_cv_;  ///< drain(): queue empty, workers idle
  std::deque<std::function<void()>> queue_;
  u32 running_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace reese
