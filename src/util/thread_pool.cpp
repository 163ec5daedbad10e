#include "util/thread_pool.h"

#include <cassert>
#include <chrono>

namespace ftc::util {

namespace {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ThreadPool::ThreadPool(int threads) {
  assert(threads >= 1);
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(job_mutex_);
    stop_ = true;
    // Bump the generation so sleeping workers wake, observe stop_, and exit.
    // The claim word is not re-published, so a worker racing past the check
    // can claim nothing from the dead generation.
    generation_.fetch_add(1, std::memory_order_release);
  }
  generation_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

int ThreadPool::hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::drain_tasks(const std::function<void(int)>* fn, int tasks,
                             std::uint64_t gen) {
  // Claim-stall accounting: drain time minus task-execution time is the
  // scheduling overhead this thread paid (CAS retries, cache traffic on the
  // claim word). Two clock reads per task when enabled, zero clock reads
  // otherwise.
  const bool perf = perf_enabled_.load(std::memory_order_relaxed);
  const std::int64_t t_enter = perf ? now_ns() : 0;
  std::int64_t exec_ns = 0;
  std::uint64_t word = claim_.load(std::memory_order_acquire);
  for (;;) {
    // Generation guard: after a job's final completion, run() may return and
    // publish a new job before this thread re-reaches the claim check. The
    // generation is packed into the claim word itself, so a CAS from a stale
    // snapshot can never hand this thread a task of the new job — the
    // comparison fails, the reload observes the new generation, and the
    // loop leaves without touching the (possibly destroyed) old fn.
    if ((word >> kTaskBits) != gen) break;
    const int task = static_cast<int>(word & kTaskMask);
    if (task >= tasks) break;
    if (!claim_.compare_exchange_weak(word, word + 1,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      continue;  // word was reloaded by the failed CAS
    }
    // Between the successful claim above and the completed_ add below,
    // completed_ < tasks holds for generation `gen`, so run() cannot return
    // and the job (and *fn) stays alive while we execute.
    const std::int64_t t_exec = perf ? now_ns() : 0;
    (*fn)(task);
    if (perf) exec_ns += now_ns() - t_exec;
    const int done = completed_.fetch_add(1, std::memory_order_acq_rel) + 1;
    assert(done <= tasks);
    if (done == tasks) {
      done_epoch_.fetch_add(1, std::memory_order_release);
      done_epoch_.notify_all();
    }
    word = claim_.load(std::memory_order_acquire);
  }
  if (perf) {
    perf_claim_stall_ns_.fetch_add(now_ns() - t_enter - exec_ns,
                                   std::memory_order_relaxed);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    generation_.wait(seen, std::memory_order_acquire);
    const std::function<void(int)>* fn = nullptr;
    int tasks = 0;
    std::uint64_t gen = 0;
    {
      // The mutex makes the job snapshot (fn, tasks, generation)
      // internally consistent; it is taken once per wakeup, never per task,
      // so the dispatch and barrier hot paths stay lock-free.
      std::lock_guard<std::mutex> lock(job_mutex_);
      if (stop_) return;
      gen = generation_.load(std::memory_order_relaxed);
      if (gen == seen) continue;  // spurious wake
      seen = gen;
      fn = job_;
      tasks = tasks_;
    }
    if (fn != nullptr) drain_tasks(fn, tasks, gen);
  }
}

void ThreadPool::run(int tasks, const std::function<void(int)>& fn) {
  assert(tasks >= 0 && tasks <= kMaxTasks);
  if (tasks == 0) return;
  if (workers_.empty() || tasks == 1) {
    for (int i = 0; i < tasks; ++i) fn(i);
    return;
  }
  const std::uint64_t done_target =
      done_epoch_.load(std::memory_order_relaxed) + 1;
  std::uint64_t gen;
  {
    std::lock_guard<std::mutex> lock(job_mutex_);
    job_ = &fn;
    tasks_ = tasks;
    completed_.store(0, std::memory_order_relaxed);
    gen = generation_.load(std::memory_order_relaxed) + 1;
    claim_.store(gen << kTaskBits, std::memory_order_relaxed);
    generation_.store(gen, std::memory_order_release);
  }
  generation_.notify_all();
  drain_tasks(&fn, tasks, gen);
  // Wait-free in the common case: if the caller executed the last task the
  // epoch already advanced and the loop falls straight through; otherwise
  // block on the epoch word until the finishing worker bumps it. The wait is
  // the caller's barrier-wait time: clocked only once blocking is certain,
  // so the wait-free fall-through stays clock-free even with perf on.
  std::int64_t wait_t0 = 0;
  for (;;) {
    const std::uint64_t epoch = done_epoch_.load(std::memory_order_acquire);
    if (epoch >= done_target) break;
    if (wait_t0 == 0 && perf_enabled_.load(std::memory_order_relaxed)) {
      wait_t0 = now_ns();
    }
    done_epoch_.wait(epoch, std::memory_order_acquire);
  }
  if (wait_t0 != 0) {
    perf_barrier_wait_ns_.fetch_add(now_ns() - wait_t0,
                                    std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(job_mutex_);
    job_ = nullptr;
  }
}

}  // namespace ftc::util
