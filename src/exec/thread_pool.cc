#include "exec/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>

#include "obs/metrics.h"

namespace prox {
namespace exec {

namespace {

constexpr int kMaxThreads = 256;

thread_local bool t_in_parallel_worker = false;

struct ExecMetrics {
  obs::Counter* tasks_total;
  obs::Counter* steal_total;
  obs::Gauge* pool_size;

  static ExecMetrics& Get() {
    static ExecMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Default();
      ExecMetrics metrics;
      metrics.tasks_total = reg.GetCounter(
          "prox_exec_tasks_total",
          "Tasks executed by prox::exec pools (chunk and submitted tasks)");
      metrics.steal_total = reg.GetCounter(
          "prox_exec_steal_total",
          "Tasks stolen from a sibling worker's deque");
      metrics.pool_size = reg.GetGauge(
          "prox_exec_pool_size",
          "Worker count of the process-default execution pool");
      return metrics;
    }();
    return m;
  }
};

int ClampThreads(int threads) {
  if (threads < 1) return 1;
  if (threads > kMaxThreads) return kMaxThreads;
  return threads;
}

}  // namespace

namespace internal {

void SetInParallelWorker(bool value) { t_in_parallel_worker = value; }

void CountTasks(uint64_t n) { ExecMetrics::Get().tasks_total->Increment(n); }

void CountSteal() { ExecMetrics::Get().steal_total->Increment(); }

}  // namespace internal

int HardwareThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int DefaultThreads() {
  static const int threads = [] {
    const char* env = std::getenv("PROX_THREADS");
    if (env != nullptr && env[0] != '\0') {
      char* end = nullptr;
      long parsed = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && parsed > 0) {
        return ClampThreads(static_cast<int>(parsed));
      }
    }
    return HardwareThreads();
  }();
  return threads;
}

int ResolveThreads(int threads) {
  if (threads == 0) return DefaultThreads();
  return ClampThreads(threads);
}

bool InParallelWorker() { return t_in_parallel_worker; }

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

ThreadPool::ThreadPool(int num_workers) {
  const int n = ClampThreads(num_workers);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  wake_cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

ThreadPool& ThreadPool::Default() {
  static ThreadPool pool(DefaultThreads());
  static const bool gauge_set = [] {
    ExecMetrics::Get().pool_size->Set(static_cast<double>(pool.size()));
    return true;
  }();
  (void)gauge_set;
  return pool;
}

void ThreadPool::Enqueue(std::function<void()> task) {
  const size_t n = workers_.size();
  const size_t target =
      static_cast<size_t>(next_worker_.fetch_add(1, std::memory_order_relaxed)) %
      n;
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mu);
    workers_[target]->tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  wake_cv_.notify_one();
}

void ThreadPool::Submit(std::function<void()> task) {
  internal::CountTasks(1);
  Enqueue([fn = std::move(task)] {
    try {
      fn();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "prox::exec: submitted task threw: %s\n", e.what());
    } catch (...) {
      std::fprintf(stderr, "prox::exec: submitted task threw\n");
    }
  });
}

bool ThreadPool::PopOwn(int self, std::function<void()>* task) {
  Worker& w = *workers_[static_cast<size_t>(self)];
  std::lock_guard<std::mutex> lock(w.mu);
  if (w.tasks.empty()) return false;
  *task = std::move(w.tasks.back());
  w.tasks.pop_back();
  return true;
}

bool ThreadPool::StealOther(int self, std::function<void()>* task) {
  const int n = size();
  for (int offset = 1; offset < n; ++offset) {
    Worker& w = *workers_[static_cast<size_t>((self + offset) % n)];
    std::lock_guard<std::mutex> lock(w.mu);
    if (w.tasks.empty()) continue;
    *task = std::move(w.tasks.front());
    w.tasks.pop_front();
    internal::CountSteal();
    return true;
  }
  return false;
}

void ThreadPool::WorkerLoop(int self) {
  internal::SetInParallelWorker(true);
  std::function<void()> task;
  for (;;) {
    if (PopOwn(self, &task) || StealOther(self, &task)) {
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      task();
      task = nullptr;
      continue;
    }
    // Drain-then-exit: only stop once every queued task has been dequeued.
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      break;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    // The timeout re-scan covers the enqueue/sleep race without requiring
    // producers to hold wake_mu_ while pushing.
    wake_cv_.wait_for(lock, std::chrono::milliseconds(2), [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
  }
  internal::SetInParallelWorker(false);
}

namespace {

/// Shared state of one RunChunks call. Lives on the caller's stack; the
/// caller blocks until `done`, so chunk tasks never outlive it.
struct ChunkJob {
  const std::function<void(int64_t, int64_t)>* body;
  std::atomic<int64_t> remaining;
  std::atomic<bool> cancelled{false};
  std::mutex mu;
  std::condition_variable done_cv;
  /// Set under `mu` by the last chunk. The caller must not wait on
  /// `remaining` instead: it could see zero and destroy the job while the
  /// last chunk is still about to lock `mu` and notify.
  bool done = false;
  std::exception_ptr error;

  void RunOne(int64_t lo, int64_t hi) {
    if (!cancelled.load(std::memory_order_acquire)) {
      try {
        (*body)(lo, hi);
      } catch (...) {
        bool expected = false;
        if (cancelled.compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel)) {
          std::lock_guard<std::mutex> lock(mu);
          error = std::current_exception();
        }
      }
    }
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      done_cv.notify_all();
    }
  }
};

}  // namespace

void ThreadPool::RunChunks(int64_t begin, int64_t end, int64_t grain,
                           const std::function<void(int64_t, int64_t)>& chunk_fn) {
  if (end <= begin) return;
  if (grain <= 0) grain = 1;
  const int64_t num_chunks = (end - begin + grain - 1) / grain;

  ChunkJob job;
  job.body = &chunk_fn;
  job.remaining.store(num_chunks, std::memory_order_relaxed);
  internal::CountTasks(static_cast<uint64_t>(num_chunks));

  for (int64_t c = 0; c < num_chunks; ++c) {
    const int64_t lo = begin + c * grain;
    const int64_t hi = std::min(end, lo + grain);
    Enqueue([&job, lo, hi] { job.RunOne(lo, hi); });
  }

  std::unique_lock<std::mutex> lock(job.mu);
  job.done_cv.wait(lock, [&job] { return job.done; });
  if (job.error) std::rethrow_exception(job.error);
}

// ---------------------------------------------------------------------------
// PoolRef
// ---------------------------------------------------------------------------

PoolRef::PoolRef(int threads) {
  const int resolved = ResolveThreads(threads);
  if (resolved <= 1) return;
  if (resolved >= DefaultThreads()) {
    pool_ = &ThreadPool::Default();
    return;
  }
  owned_ = std::make_unique<ThreadPool>(resolved);
  pool_ = owned_.get();
}

}  // namespace exec
}  // namespace prox
