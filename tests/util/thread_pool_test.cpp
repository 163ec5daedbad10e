#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace ftc::util {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(64);
  pool.run(64, [&](int i) { hits[static_cast<std::size_t>(i)] += 1; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, SingleThreadedPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::vector<int> order;
  pool.run(5, [&](int i) { order.push_back(i); });  // no workers: inline
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  std::atomic<long long> sum{0};
  for (int job = 0; job < 50; ++job) {
    pool.run(10, [&](int i) { sum += i; });
  }
  EXPECT_EQ(sum.load(), 50LL * 45);
}

TEST(ThreadPool, ZeroTasksIsANoOp) {
  ThreadPool pool(2);
  pool.run(0, [&](int) { FAIL() << "no task should run"; });
}

TEST(ThreadPool, MoreTasksThanThreads) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(1000);
  pool.run(1000, [&](int i) { hits[static_cast<std::size_t>(i)] += 1; });
  int total = 0;
  for (const auto& h : hits) total += h.load();
  EXPECT_EQ(total, 1000);
}

TEST(ThreadPool, DisjointShardWritesNeedNoSynchronization) {
  // The simulator's usage pattern: tasks write to task-indexed slots and
  // the caller merges after run() returns (the barrier orders the writes).
  ThreadPool pool(4);
  std::vector<long long> slot(8, 0);
  pool.run(8, [&](int i) {
    for (int k = 0; k < 1000; ++k) slot[static_cast<std::size_t>(i)] += k;
  });
  const long long expected = 999LL * 1000 / 2;
  for (long long s : slot) {
    EXPECT_EQ(s, expected);
  }
}

TEST(ThreadPool, BackToBackJobsNeverLeakTasksAcrossGenerations) {
  // Regression test for a generation race: after a job's last task
  // completed, a worker re-entering the claim loop could observe the
  // counters already reset by the next run() call and claim a task of the
  // new job while still holding the old job's (by then destroyed)
  // function. Tiny jobs issued back-to-back with distinct per-job closures
  // maximize that window; a stale claim either corrupts `hits` (task run
  // by the wrong job's closure) or releases the barrier early (task never
  // run by the right one).
  ThreadPool pool(4);
  constexpr int kJobs = 2000;
  constexpr int kTasks = 3;
  for (int job = 0; job < kJobs; ++job) {
    std::vector<std::atomic<int>> hits(kTasks);
    pool.run(kTasks, [&hits, job](int i) {
      hits[static_cast<std::size_t>(i)] += job + 1;
    });
    for (const auto& h : hits) {
      ASSERT_EQ(h.load(), job + 1);
    }
  }
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

TEST(ThreadPool, PerfCountersStayZeroWhileDisabled) {
  // Off by default: the plain dispatch path must stay clock-free, so no
  // counter may move without set_perf_enabled(true).
  ThreadPool pool(4);
  std::atomic<long long> sum{0};
  for (int job = 0; job < 20; ++job) {
    pool.run(32, [&](int i) { sum += i; });
  }
  const auto pc = pool.drain_perf();
  EXPECT_EQ(pc.barrier_wait_ns, 0);
  EXPECT_EQ(pc.claim_stall_ns, 0);
}

TEST(ThreadPool, PerfCountersAccumulateAndDrainZeroes) {
  ThreadPool pool(4);
  pool.set_perf_enabled(true);
  std::atomic<long long> sum{0};
  // Tasks long enough that workers are still busy when the caller reaches
  // the barrier (barrier_wait) and that wakeup latency shows up as drain
  // time not spent executing (claim_stall). Either counter alone can be
  // zero on a pathological schedule; across 20 jobs their sum cannot be.
  for (int job = 0; job < 20; ++job) {
    pool.run(8, [&](int i) {
      volatile int spin = 0;
      while (spin < 20000) spin = spin + 1;
      sum += i;
    });
  }
  const auto pc = pool.drain_perf();
  EXPECT_GE(pc.barrier_wait_ns, 0);
  EXPECT_GE(pc.claim_stall_ns, 0);
  EXPECT_GT(pc.barrier_wait_ns + pc.claim_stall_ns, 0);
  // drain_perf is destructive: the next drain starts from zero.
  const auto drained = pool.drain_perf();
  EXPECT_EQ(drained.barrier_wait_ns, 0);
  EXPECT_EQ(drained.claim_stall_ns, 0);
  // Disabling stops accumulation again.
  pool.set_perf_enabled(false);
  pool.run(32, [&](int i) { sum += i; });
  const auto off = pool.drain_perf();
  EXPECT_EQ(off.barrier_wait_ns, 0);
  EXPECT_EQ(off.claim_stall_ns, 0);
}

}  // namespace
}  // namespace ftc::util
