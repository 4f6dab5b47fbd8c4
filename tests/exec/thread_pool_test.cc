#include "exec/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace prox {
namespace exec {
namespace {

TEST(ThreadsResolutionTest, HardwareThreadsIsPositive) {
  EXPECT_GE(HardwareThreads(), 1);
}

TEST(ThreadsResolutionTest, ResolveThreadsClampsAndDefaults) {
  EXPECT_EQ(ResolveThreads(1), 1);
  EXPECT_EQ(ResolveThreads(7), 7);
  EXPECT_EQ(ResolveThreads(-3), 1);
  EXPECT_EQ(ResolveThreads(100000), 256);
  EXPECT_EQ(ResolveThreads(0), DefaultThreads());
  EXPECT_GE(DefaultThreads(), 1);
}

TEST(ThreadPoolTest, StartupAndShutdownAreClean) {
  for (int size : {1, 2, 4}) {
    ThreadPool pool(size);
    EXPECT_EQ(pool.size(), size);
  }
  // Clamping.
  ThreadPool tiny(0);
  EXPECT_EQ(tiny.size(), 1);
}

TEST(ThreadPoolTest, SubmitRunsTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::mutex mu;
  std::condition_variable cv;
  // Set under `mu` by the last task: waiting on `counter` instead lets
  // this frame (and `cv`) die while that task is about to notify.
  bool done = false;
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      if (counter.fetch_add(1) + 1 == kTasks) {
        std::lock_guard<std::mutex> lock(mu);
        done = true;
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(
      cv.wait_for(lock, std::chrono::seconds(30), [&] { return done; }));
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  constexpr int kTasks = 200;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&] { counter.fetch_add(1); });
    }
    // ~ThreadPool drains every queued task before joining.
  }
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(&pool, 0, kN, 7, [&](int64_t i) { hits[i].fetch_add(1); });
  for (int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolRunsInlineInOrder) {
  std::vector<int64_t> order;
  ParallelFor(nullptr, 3, 10, 2, [&](int64_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int64_t>{3, 4, 5, 6, 7, 8, 9}));
}

TEST(ParallelForTest, GrainEdgeCases) {
  ThreadPool pool(2);
  // Empty and reversed ranges are no-ops.
  int calls = 0;
  ParallelFor(&pool, 5, 5, 1, [&](int64_t) { ++calls; });
  ParallelFor(&pool, 9, 2, 1, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);

  // Non-positive grain clamps to 1 and still covers the range.
  std::vector<std::atomic<int>> hits(10);
  ParallelFor(&pool, 0, 10, 0, [&](int64_t i) { hits[i].fetch_add(1); });
  ParallelFor(&pool, 0, 10, -5, [&](int64_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 2);

  // Grain larger than the range runs inline.
  std::vector<int64_t> order;
  ParallelFor(&pool, 0, 4, 100, [&](int64_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3}));
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 0, 100, 1,
                  [&](int64_t i) {
                    if (i == 37) throw std::runtime_error("boom 37");
                  }),
      std::runtime_error);
  // The pool survives a throwing job and keeps running new work.
  std::atomic<int64_t> sum{0};
  ParallelFor(&pool, 0, 10, 1, [&](int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ParallelForTest, BackToBackCallsNeverTouchAFinishedJob) {
  // Each call's job lives on the caller's stack, and the next call reuses
  // that stack slot. The caller must not return while the last chunk can
  // still touch the job (lock its mutex, notify its condition variable):
  // under TSan a premature return shows as a race on the reused slot, in
  // plain builds as a hang or a corrupted stack.
  ThreadPool pool(2);
  for (int round = 0; round < 2000; ++round) {
    std::atomic<int> ran{0};
    ParallelFor(&pool, 0, 2, 1, [&](int64_t) { ran.fetch_add(1); });
    ASSERT_EQ(ran.load(), 2) << "round " << round;
  }
}

TEST(ParallelForTest, NestedCallFromWorkerRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int64_t> total{0};
  // Outer ParallelFor saturates the pool; each worker issues an inner
  // ParallelFor on the same pool, which must degrade to the inline loop
  // (InParallelWorker()) instead of deadlocking on its own queue.
  ParallelFor(&pool, 0, 8, 1, [&](int64_t) {
    EXPECT_TRUE(InParallelWorker());
    ParallelFor(&pool, 0, 100, 4, [&](int64_t i) { total.fetch_add(i); });
  });
  EXPECT_EQ(total.load(), 8 * 4950);
  EXPECT_FALSE(InParallelWorker());
}

TEST(ExecMetricsTest, TasksAreCounted) {
  auto snapshot_tasks = [] {
    return obs::MetricsRegistry::Default().Snapshot().CounterValue(
        "prox_exec_tasks_total");
  };
  ThreadPool pool(2);
  const double before = snapshot_tasks();
  // 100 indices at grain 10 → 10 chunk tasks.
  std::atomic<int> hits{0};
  ParallelFor(&pool, 0, 100, 10, [&](int64_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 100);
  if (obs::Enabled()) {
    EXPECT_EQ(snapshot_tasks() - before, 10.0);
  }
}

TEST(PoolRefTest, SerialAndParallelResolution) {
  PoolRef serial(1);
  EXPECT_EQ(serial.pool(), nullptr);
  EXPECT_EQ(serial.threads(), 1);

  PoolRef two(2);
  if (DefaultThreads() <= 2) {
    EXPECT_EQ(two.pool(), &ThreadPool::Default());
    EXPECT_EQ(two.threads(), DefaultThreads());
  } else {
    ASSERT_NE(two.pool(), nullptr);
    EXPECT_EQ(two.pool()->size(), 2);
    EXPECT_EQ(two.threads(), 2);
  }

  PoolRef automatic(0);
  EXPECT_EQ(automatic.threads(), DefaultThreads());
  if (DefaultThreads() > 1) {
    EXPECT_EQ(automatic.pool(), &ThreadPool::Default());
  } else {
    EXPECT_EQ(automatic.pool(), nullptr);
  }
}

TEST(PoolRefTest, CountAboveTheDefaultRunsOnTheDefaultPool) {
  // A count above the process default starts no pool of its own, so a
  // request's `threads` cannot start more workers than the process has.
  PoolRef above(DefaultThreads() + 1);
  EXPECT_EQ(above.pool(), &ThreadPool::Default());
  EXPECT_EQ(above.threads(), DefaultThreads());
}

}  // namespace
}  // namespace exec
}  // namespace prox
