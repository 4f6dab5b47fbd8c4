#ifndef PROX_EXEC_THREAD_POOL_H_
#define PROX_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace prox {
namespace exec {

/// \brief `prox::exec` — a small work-stealing thread pool for the
/// embarrassingly parallel loops of the summarization hot path (the fold
/// and materialize passes of step pricing, the HAC distance-matrix fill).
///
/// Design constraints, in priority order (docs/PARALLELISM.md):
///  1. *Determinism*: every parallel construct here produces bit-identical
///     results at any thread count, including the serial inline path.
///     `ParallelFor` gives each index to exactly one task and callers write
///     to index-addressed slots; a reduction adds those slots in ascending
///     order on the calling thread, never in scheduling order.
///  2. *Exact serial behaviour at 1 thread*: a null pool (or a nested call
///     from inside a worker) runs the plain `for` loop inline on the
///     calling thread — no tasks, no allocation, no synchronization.
///  3. *No deadlocks from nesting*: a `ParallelFor` issued from a pool
///     worker degrades to the inline loop instead of submitting to the
///     pool it is running on.
///
/// Thread count resolution (shared by `SummarizerOptions::threads`,
/// `ClusteringOptions::threads`, `SummarizationRequest::threads` and
/// `prox_cli --threads`): `0` = automatic — the `PROX_THREADS` environment
/// variable when set, the hardware concurrency otherwise; `1` = serial;
/// `N > 1` = N workers, at most DefaultThreads() (PoolRef).
///
/// Metrics (docs/OBSERVABILITY.md): `prox_exec_pool_size`,
/// `prox_exec_tasks_total`, `prox_exec_steal_total`.

/// Hardware concurrency, at least 1.
int HardwareThreads();

/// The process-default thread count: `PROX_THREADS` when set and positive,
/// hardware concurrency when unset or `0`. Always >= 1.
int DefaultThreads();

/// Resolves a `threads` option value: `0` -> DefaultThreads(), otherwise
/// the value clamped to [1, 256].
int ResolveThreads(int threads);

/// True on a pool worker thread (used to run nested parallel constructs
/// inline and to suppress per-candidate trace spans on the parallel path).
bool InParallelWorker();

namespace internal {
void SetInParallelWorker(bool value);
void CountTasks(uint64_t n);
void CountSteal();
}  // namespace internal

/// \brief Fixed-size work-stealing pool. Each worker owns a deque; tasks
/// are pushed round-robin, popped LIFO by their owner and stolen FIFO by
/// idle siblings. Destruction drains queued tasks, then joins.
class ThreadPool {
 public:
  /// Spawns `num_workers` workers (clamped to [1, 256]).
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, sized DefaultThreads(). Created on first use;
  /// its size is exported as the `prox_exec_pool_size` gauge.
  static ThreadPool& Default();

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a fire-and-forget task. Tasks must not throw; escaping
  /// exceptions are caught and reported to stderr (use ParallelFor for
  /// propagating work).
  void Submit(std::function<void()> task);

  /// Splits [begin, end) into ceil(range/grain) contiguous chunks, runs
  /// `chunk_fn(lo, hi)` once per chunk across the workers, and blocks
  /// until every chunk finished. The first exception thrown by a chunk is
  /// rethrown here (chunks not yet started are skipped). Callers on a
  /// worker thread must use the free exec::ParallelFor, which runs inline
  /// in that case.
  void RunChunks(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& chunk_fn);

 private:
  struct Worker {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(int self);
  bool PopOwn(int self, std::function<void()>* task);
  bool StealOther(int self, std::function<void()>* task);
  void Enqueue(std::function<void()> task);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<int64_t> pending_{0};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> next_worker_{0};
};

/// \brief Resolves a `threads` option into the pool to run on. `pool()` is
/// nullptr when the resolved count is 1 (serial), an owned transient pool
/// of exactly that many workers when it is below DefaultThreads(), and the
/// process-default pool otherwise: a count above the default runs on the
/// default pool, so no option can start more workers than the process
/// already has.
class PoolRef {
 public:
  explicit PoolRef(int threads);

  /// The pool to pass to ParallelFor; nullptr = serial.
  ThreadPool* pool() const { return pool_; }
  /// The worker count the pool runs (>= 1).
  int threads() const { return pool_ == nullptr ? 1 : pool_->size(); }

 private:
  ThreadPool* pool_ = nullptr;
  std::unique_ptr<ThreadPool> owned_;
};

/// Runs `fn(i)` for every i in [begin, end), partitioned into chunks of
/// `grain` indices. Inline (plain loop, ascending i) when `pool` is null,
/// the range fits one chunk, the pool has a single worker, or the caller
/// is itself a pool worker; otherwise fanned out via ThreadPool::RunChunks.
/// Every index runs exactly once; callers make results deterministic by
/// writing to index-addressed slots.
template <typename Fn>
void ParallelFor(ThreadPool* pool, int64_t begin, int64_t end, int64_t grain,
                 Fn&& fn) {
  if (end <= begin) return;
  if (grain <= 0) grain = 1;
  if (pool == nullptr || pool->size() <= 1 || end - begin <= grain ||
      InParallelWorker()) {
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  std::function<void(int64_t, int64_t)> chunk_fn = [&fn](int64_t lo,
                                                         int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) fn(i);
  };
  pool->RunChunks(begin, end, grain, chunk_fn);
}

}  // namespace exec
}  // namespace prox

#endif  // PROX_EXEC_THREAD_POOL_H_
