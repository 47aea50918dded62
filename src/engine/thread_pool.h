// The execution engine: a persistent worker pool with a deterministic
// sharded ParallelFor.
//
// FLOC's phases (and the parallel scans in the baselines and seeding)
// are data-parallel sweeps over rows/columns whose results must be
// bit-identical at any thread count. The engine guarantees that by
// construction:
//
//   * Work is split into *shards* whose count and boundaries depend only
//     on the total item count (ShardGrain / ShardCount) -- never on the
//     worker count or on runtime scheduling.
//   * Shards are claimed dynamically (an atomic cursor), but anything a
//     shard produces lands in per-shard slots; callers merge those slots
//     in shard order after the join, so even non-commutative reductions
//     are deterministic.
//   * The serial fallback (ParallelApply below a cutoff, or a 1-thread
//     pool) iterates the identical shard boundaries inline, so the two
//     paths are interchangeable element for element.
//
// The pool is persistent: workers are spawned once at construction and
// parked on a condition variable between ParallelFor calls, replacing
// the per-iteration std::thread spawn/join churn the move phase used to
// pay. One pool instance may be shared across Floc runs, the baselines,
// and the bench drivers (see FlocConfig::pool).
//
// The pool has one more primitive, RunBeside: the calling thread runs a
// serial coordinator body while every worker runs a helper body beside
// it, joined once at the end. It serves a sweep that must stay serial
// (the FLOC apply sweep) but whose upcoming work can be prepared ahead;
// what the helpers get done is schedule-dependent, so it must never be
// what a result depends on.
//
// Thread contract: ParallelFor and RunBeside must be called from one
// coordinating thread at a time and must not be re-entered from inside
// a shard or helper body. Shard bodies run concurrently and must only
// touch shared state read-only (or write to disjoint slots).
#ifndef DELTACLUS_ENGINE_THREAD_POOL_H_
#define DELTACLUS_ENGINE_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/stop_token.h"
#include "src/util/thread_annotations.h"

namespace deltaclus::engine {

/// Resolves a configured thread count: positive values pass through, 0
/// means std::thread::hardware_concurrency() (with a floor of 1 when the
/// runtime cannot report it). Negative values are a configuration error
/// upstream (FlocConfig::Validate rejects them) and clamp to 1 here.
int ResolveThreads(int configured);

/// Work-item count below which a parallel scan runs inline on the
/// calling thread: for tiny sweeps the cost of waking the workers
/// exceeds the scan itself. The serial path iterates the same shard
/// boundaries, so crossing the cutoff never changes results (pinned by
/// tests/floc_phases_test.cc above/below-cutoff agreement).
inline constexpr size_t kSerialCutoff = 64;

/// Target shard count of a parallel sweep. More shards than any sane
/// worker count so dynamic claiming load-balances heterogeneous items,
/// few enough that per-shard bookkeeping stays negligible.
inline constexpr size_t kShardsPerSweep = 64;

/// Shard size for `total` work items -- a function of the total ONLY
/// (the determinism linchpin: identical shard boundaries at any worker
/// count).
inline size_t ShardGrain(size_t total) {
  size_t grain = (total + kShardsPerSweep - 1) / kShardsPerSweep;
  return grain == 0 ? 1 : grain;
}

/// Number of shards ParallelFor splits `total` items into under `grain`.
inline size_t ShardCount(size_t total, size_t grain) {
  return grain == 0 ? 0 : (total + grain - 1) / grain;
}

class ThreadPool {
 public:
  /// Body of one shard: the half-open item range [begin, end) plus the
  /// shard's index (for per-shard accumulator slots).
  using ShardFn = std::function<void(size_t begin, size_t end, size_t shard)>;

  /// Spawns `threads - 1` workers (the coordinating thread participates
  /// in every ParallelFor, so `threads` is the total concurrency).
  /// threads <= 1 spawns nothing and makes every ParallelFor inline.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (workers + the coordinating thread); >= 1.
  int threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn over [0, total) split into ShardCount(total, grain) shards;
  /// grain 0 means ShardGrain(total). Blocks until every shard finished.
  /// All shards run even if one throws; afterwards the exception from
  /// the lowest-indexed throwing shard is rethrown on the caller (a
  /// deterministic choice, since shard bodies are deterministic).
  ///
  /// `stop` (optional, non-owning) is the cooperative cancellation
  /// token: it is consulted only at shard-*claim* boundaries, so every
  /// shard either runs to completion (bit-identical to the uncancelled
  /// sweep) or never starts. Once the token fires the remaining shards
  /// are skipped and ParallelFor returns normally; the caller owns
  /// checking stop_requested() afterwards and discarding the sweep's
  /// (partial) output wholesale -- which is what keeps cancellation
  /// unable to perturb any result that is kept.
  void ParallelFor(size_t total, size_t grain, const ShardFn& fn,
                   const StopToken* stop = nullptr) DC_EXCLUDES(mutex_);

  /// ParallelFor with the default grain.
  void ParallelFor(size_t total, const ShardFn& fn,
                   const StopToken* stop = nullptr) {
    ParallelFor(total, 0, fn, stop);
  }

  /// Body of one helper beside a coordinator (RunBeside): the helper's
  /// index in [0, threads() - 1) and the token RunBeside fires once the
  /// coordinator's body has returned.
  using HelperFn = std::function<void(size_t helper, const StopToken& done)>;

  /// Runs `coordinator` on the calling thread while each worker runs one
  /// `helper` body beside it, then joins once. Helper bodies must poll
  /// `done` and return soon after it fires. Unlike ParallelFor, this
  /// promises nothing about how much of the helpers' work happens (a
  /// worker that wakes after the coordinator finished runs no helper at
  /// all), so helpers may only do work the coordinator would otherwise
  /// do itself (the pipelined apply sweep's memo refreshes), never work
  /// a result depends on. If the coordinator throws, its exception is
  /// rethrown after the join; otherwise the lowest-indexed throwing
  /// helper's is. The same one-coordinator, no-re-entry contract as
  /// ParallelFor.
  void RunBeside(const HelperFn& helper,
                 const std::function<void()>& coordinator) DC_EXCLUDES(mutex_);

 private:
  struct Job {
    // fn/total/grain/shards are written once by the coordinator before
    // the job is published under mutex_ and read-only afterwards; the
    // mutex acquire/release pair publishing the Job* is the fence that
    // makes them visible to workers.
    const ShardFn* fn = nullptr;
    size_t total = 0;
    size_t grain = 0;
    size_t shards = 0;
    // Optional cancellation token, checked before each shard claim (see
    // ParallelFor). Written once by the coordinator before publication.
    const StopToken* stop = nullptr;
    // DC_LOCK_FREE: the shard-claim cursor. fetch_add(relaxed) is
    // sufficient because the claim itself is the only communication --
    // each shard index is handed to exactly one claimant, and all data
    // written by shard bodies is published by the coordinator's
    // join-side mutex acquire, not by this counter.
    std::atomic<size_t> next{0};
    dc::Mutex error_mutex;
    size_t error_shard DC_GUARDED_BY(error_mutex) = 0;
    std::exception_ptr error DC_GUARDED_BY(error_mutex);
  };

  // Posts `job` to the workers (no-op without workers).
  void Post(Job& job) DC_EXCLUDES(mutex_);
  // Retracts the posted job and waits until no worker is inside it.
  void Retract() DC_EXCLUDES(mutex_);
  // The lowest-indexed throwing shard's exception, or null.
  static std::exception_ptr TakeError(Job& job);

  void WorkerLoop() DC_EXCLUDES(mutex_);
  // Claims and runs shards until the job's cursor is exhausted.
  static void RunShards(Job& job);

  std::vector<std::thread> workers_;

  dc::Mutex mutex_;
  dc::CondVar wake_cv_;  // workers park here between jobs
  dc::CondVar done_cv_;  // the coordinator waits here
  /// Non-null while a job is posted.
  Job* job_ DC_GUARDED_BY(mutex_) = nullptr;
  /// Bumped per posted job.
  uint64_t generation_ DC_GUARDED_BY(mutex_) = 0;
  /// Workers currently inside RunShards.
  size_t participants_ DC_GUARDED_BY(mutex_) = 0;
  /// Workers that finished startup (trace-name registration); the
  /// constructor blocks until all of them have, so worker startup
  /// allocations never land after construction.
  size_t started_ DC_GUARDED_BY(mutex_) = 0;
  bool stop_ DC_GUARDED_BY(mutex_) = false;
};

/// Runs `fn` over [0, total): on the pool when it is worth it, inline
/// otherwise (null/1-thread pool, or total below the cutoff). Both paths
/// iterate the identical ShardGrain(total) boundaries, so per-shard
/// accumulators merge identically and results are bit-identical either
/// way. This is the entry point phase components use. `stop` follows
/// the ParallelFor contract: consulted at shard boundaries on both
/// paths, remaining shards skipped once it fires, and the caller
/// discards the sweep's partial output after checking the token.
void ParallelApply(ThreadPool* pool, size_t total, const ThreadPool::ShardFn& fn,
                   size_t serial_cutoff = kSerialCutoff,
                   const StopToken* stop = nullptr);

}  // namespace deltaclus::engine

#endif  // DELTACLUS_ENGINE_THREAD_POOL_H_
