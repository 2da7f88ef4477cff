// A persistent thread pool with a deterministic-friendly ParallelFor.
//
// Deliberately work-stealing-free at the result level: tasks are claimed
// from one atomic cursor in index order. The pool never imposes an ordering
// on *results* — callers that need determinism (the morsel-parallel
// executor) key every task's randomness and merge order on the task index,
// which is scheduling-independent by construction.
//
// Scheduling shape, tuned against the E3c flat-scaling profile:
//   * The calling thread participates as worker 0, so a pool configured
//     for N-way parallelism spawns only N-1 threads — and N == 1 spawns
//     none at all (ParallelFor runs inline with zero atomics).
//   * Within a batch, indexes are claimed `chunk` at a time from an atomic
//     cursor with no lock or condition-variable round-trip per task; the
//     mutex is touched once per worker per batch (wake + completion), not
//     once per index.
//   * Pools are reusable and growable (EnsureThreads), and a process-wide
//     ThreadPool::Shared() instance keeps its workers alive across
//     queries, so steady-state execution pays zero thread spawns.

#ifndef GUS_UTIL_THREAD_POOL_H_
#define GUS_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace gus {

/// \brief Reusable, growable set of worker threads executing indexed task
/// batches. The caller of ParallelFor participates as worker 0.
class ThreadPool {
 public:
  /// Chunked worker-aware task body: runs indexes [begin, end) on behalf
  /// of `worker` (0 = the ParallelFor caller).
  using RangeFn = std::function<void(int worker, int64_t begin, int64_t end)>;

  /// \brief Prepares an `num_threads`-way pool (clamped to >= 1).
  ///
  /// Spawns num_threads - 1 worker threads — the ParallelFor caller is the
  /// remaining worker — so `ThreadPool(1)` spawns no threads and runs
  /// everything inline.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured parallelism (spawned workers + the caller).
  int num_threads() const {
    return configured_.load(std::memory_order_acquire);
  }

  /// \brief Grows the pool so num_threads() >= `num_threads`. Never
  /// shrinks; a no-op when already large enough. Safe to call between
  /// batches from any thread (blocks while a batch is active).
  void EnsureThreads(int num_threads);

  /// \brief Runs fn(i) for every i in [0, n), distributed over the
  /// workers, and blocks until all calls return.
  ///
  /// `fn` must be safe to call concurrently from multiple threads.
  /// Indexes are claimed in increasing order but may complete in any
  /// order. One batch runs at a time (calls serialize); a call made from
  /// inside one of this pool's own tasks runs inline on the calling
  /// thread instead of deadlocking.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

  /// \brief Chunked, worker-aware form of ParallelFor.
  ///
  /// Indexes are claimed `chunk` at a time (one atomic fetch-add per
  /// chunk, no locks) by at most `max_workers` workers (clamped to
  /// [1, num_threads()]) from one global cursor, in increasing order. fn
  /// receives the claiming worker's id and the half-open index range.
  void ParallelForChunked(int64_t n, int64_t chunk, int max_workers,
                          const RangeFn& fn);

  /// \brief Worker threads ever spawned by this pool (monotone).
  ///
  /// Stable across ParallelFor calls once the pool is warm — the
  /// regression tests pin that reuse never re-spawns.
  uint64_t spawned_threads() const {
    return spawned_.load(std::memory_order_acquire);
  }

  /// \brief Times a spawned worker woke from its condition-variable wait
  /// for a new batch (monotone). One wake per worker per batch at most —
  /// per-index wake round-trips are gone by design.
  uint64_t wakeups() const { return wakeups_.load(std::memory_order_acquire); }

  /// True when the calling thread is currently executing a task of *any*
  /// ThreadPool. Executors use this to pick between the shared pool and a
  /// transient private one (nested batches on the same pool run inline).
  static bool InPoolTask();

  /// std::thread::hardware_concurrency with a >= 1 floor.
  static int HardwareThreads();

  /// \brief Process-wide persistent pool, grown on demand via
  /// EnsureThreads and reused across queries (no per-query thread
  /// spawning). Prefer PoolLease over calling this directly.
  static ThreadPool& Shared();

 private:
  void Spawn(int count);  // requires mu_ held, no active batch
  void WorkerLoop(int worker_id, uint64_t seen_epoch);
  void RunClaimLoop(int worker, const RangeFn& fn, int64_t limit,
                    int64_t chunk);
  void FinishIndexes(int64_t count);

  std::mutex batch_mu_;  // serializes ParallelFor batches
  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for a batch
  std::condition_variable done_cv_;  // the caller waits for completion
  const RangeFn* fn_ = nullptr;      // active batch body
  int64_t limit_ = 0;                // batch size
  int64_t chunk_ = 1;                // indexes claimed per fetch-add
  int active_workers_ = 0;           // workers participating in the batch
  int workers_in_batch_ = 0;  // spawned workers inside a claim loop
  uint64_t epoch_ = 0;        // bumped per batch so workers don't re-enter
  bool shutdown_ = false;
  std::atomic<int64_t> cursor_{0};     // next unclaimed index
  std::atomic<int64_t> remaining_{0};  // indexes not yet completed
  std::atomic<int> configured_{1};
  std::atomic<uint64_t> spawned_{0};
  std::atomic<uint64_t> wakeups_{0};
  std::vector<std::thread> threads_;
};

/// \brief Leases a pool for one parallel region: the process-wide shared
/// pool (grown to `num_threads`) normally, or a transient private pool
/// when the calling thread is already inside a pool task — a nested batch
/// on the shared pool would run inline-serial instead of in parallel.
///
/// spawned_during() reports how many worker threads the lease caused to be
/// created (0 in the steady state — the profiling layer surfaces this so
/// cold-start spawns are visible in ExecStats).
class PoolLease {
 public:
  explicit PoolLease(int num_threads);

  ThreadPool* get() const { return pool_; }
  ThreadPool* operator->() const { return pool_; }
  ThreadPool& operator*() const { return *pool_; }

  uint64_t spawned_during() const {
    return pool_->spawned_threads() - spawned_before_;
  }
  uint64_t wakeups_during() const {
    return pool_->wakeups() - wakeups_before_;
  }

 private:
  std::optional<ThreadPool> local_;
  ThreadPool* pool_;
  uint64_t spawned_before_;
  uint64_t wakeups_before_;
};

}  // namespace gus

#endif  // GUS_UTIL_THREAD_POOL_H_
