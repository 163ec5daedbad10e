// Persistent worker pool for deterministic fork-join parallelism.
//
// The simulator's parallel round engine dispatches two to three short
// parallel phases per round; at a million rounds per run the pool's dispatch
// and barrier costs are hot-path costs. The pool therefore avoids mutexes
// and condition variables entirely on the dispatch path:
//
//   * Task claiming is a single atomic compare-exchange on a packed
//     (generation, next-task) word. Packing the job generation into the same
//     word as the task cursor makes the stale-worker race (a worker from job
//     k-1 claiming a task of job k through job k-1's destroyed function)
//     structurally impossible: a claim succeeds only if the generation half
//     of the word still matches the claimer's job.
//   * The completion barrier is a wait-free epoch counter: the worker whose
//     task completes the job bumps `done_epoch_` and wakes the caller via
//     C++20 atomic notify — no condvar round-trips, and a caller that
//     finished the last task itself never blocks at all.
//
// run() is a strict barrier: it dispatches task indices [0, tasks) to the
// workers (the calling thread participates too) and returns only when every
// task has finished.
//
// Determinism contract: the pool itself imposes no ordering between tasks —
// callers get reproducible results by making tasks write to disjoint,
// task-indexed state and merging sequentially after run() returns. That is
// exactly how SyncNetwork's parallel mode uses it (see network.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ftc::util {

/// Fixed-size fork-join pool. `threads` counts the calling thread, so a
/// ThreadPool(4) spawns 3 workers and run() uses 4 execution streams.
/// Not thread-safe: run() must not be called concurrently with itself.
class ThreadPool {
 public:
  /// threads >= 1. ThreadPool(1) spawns no workers; run() executes inline.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of execution streams (spawned workers + the caller).
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Runs fn(0), ..., fn(tasks - 1), each exactly once, distributed over the
  /// pool. Blocks until all calls have returned. fn must not throw. A
  /// single-task job runs inline on the caller (there is nothing to
  /// parallelize that would repay a wakeup).
  void run(int tasks, const std::function<void(int)>& fn);

  /// Threads the hardware supports (>= 1); the default width for callers
  /// that do not specify one.
  [[nodiscard]] static int hardware_threads() noexcept;

  /// Scheduling-overhead counters, accumulated while perf accounting is
  /// enabled and drained by the owner between jobs. Both are wall-clock
  /// facts: they feed the obs perf plane's side channel, never anything
  /// determinism-compared.
  struct PerfCounters {
    std::int64_t barrier_wait_ns = 0;  ///< caller blocked on the epoch barrier
    std::int64_t claim_stall_ns = 0;   ///< drain time not spent running tasks
  };

  /// Enables the counters (two extra clock reads per drain and per caller
  /// wait; off by default so the plain dispatch path stays clock-free).
  void set_perf_enabled(bool enabled) noexcept {
    perf_enabled_.store(enabled, std::memory_order_relaxed);
  }
  /// Returns the accumulated counters and zeroes them. Owner-thread only,
  /// outside run() (workers are quiescent between jobs).
  [[nodiscard]] PerfCounters drain_perf() noexcept {
    return {perf_barrier_wait_ns_.exchange(0, std::memory_order_relaxed),
            perf_claim_stall_ns_.exchange(0, std::memory_order_relaxed)};
  }

 private:
  // claim_ layout: high 40 bits job generation, low 24 bits next task index.
  static constexpr int kTaskBits = 24;
  static constexpr std::uint64_t kTaskMask = (1ULL << kTaskBits) - 1;
  /// Largest task count run() accepts (16M; shard counts are tiny).
  static constexpr int kMaxTasks = static_cast<int>(kTaskMask);

  void worker_loop();
  /// Claims and executes tasks of job generation `gen` until none remain or
  /// a newer job has been published (the generation half of claim_ changed).
  void drain_tasks(const std::function<void(int)>* fn, int tasks,
                   std::uint64_t gen);

  std::vector<std::thread> workers_;
  // Job publication. The descriptor fields are written by run() and read by
  // a freshly woken worker under job_mutex_, which makes each worker's
  // snapshot of (fn, tasks, generation) internally consistent — a
  // worker can never pair job k's function with job k+1's task count. The
  // mutex is touched once per wakeup and once per dispatch, never per task
  // or per barrier, so the hot paths below stay lock-free.
  std::mutex job_mutex_;
  const std::function<void(int)>* job_ = nullptr;
  int tasks_ = 0;
  bool stop_ = false;
  std::atomic<std::uint64_t> generation_{0};  ///< workers wait on this
  std::atomic<std::uint64_t> claim_{0};       ///< packed (generation, cursor)
  std::atomic<int> completed_{0};             ///< tasks finished this job
  std::atomic<std::uint64_t> done_epoch_{0};  ///< caller waits on this
  // Perf accounting (relaxed: drained only at quiescent points).
  std::atomic<bool> perf_enabled_{false};
  std::atomic<std::int64_t> perf_barrier_wait_ns_{0};
  std::atomic<std::int64_t> perf_claim_stall_ns_{0};
};

}  // namespace ftc::util
