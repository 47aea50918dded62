#include "src/engine/thread_pool.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/obs/clock.h"
#include "src/obs/metrics.h"
#include "src/obs/quantile_histogram.h"
#include "src/obs/trace.h"

namespace deltaclus::engine {

namespace {

// Pool-level sweep accounting, registered once and mutated lock-free.
// Shard imbalance is max/mean shard wall time within one sweep: 1.0 is
// a perfectly balanced sweep, large values mean one straggler shard
// serialized the join.
struct PoolMetrics {
  obs::Counter* sweeps;
  obs::Counter* shards;
  obs::QuantileHistogram* shard_imbalance;

  static const PoolMetrics& Get() {
    static const PoolMetrics* metrics = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
      return new PoolMetrics{
          r.GetCounter("engine.pool.sweeps"),
          r.GetCounter("engine.pool.shards"),
          r.GetQuantileHistogram("engine.pool.shard_imbalance",
                                 obs::RatioOptions())};
    }();
    return *metrics;
  }
};

}  // namespace

int ResolveThreads(int configured) {
  if (configured > 0) return configured;
  if (configured < 0) return 1;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) {
  int spawn = std::max(threads, 1) - 1;
  workers_.reserve(static_cast<size_t>(spawn));
  for (int i = 0; i < spawn; ++i) {
    workers_.emplace_back([this, i] {
      // Label the worker's track in trace exports (the coordinating
      // thread is whoever calls ParallelFor and keeps its own name).
      obs::TraceRecorder::NameCurrentThread("pool worker " +
                                            std::to_string(i + 1));
      {
        dc::MutexLock lock(mutex_);
        ++started_;
      }
      done_cv_.NotifyOne();
      WorkerLoop();
    });
  }
  // Wait until every worker has registered its trace name, so all
  // startup allocation happens inside the constructor: callers may
  // bracket an allocation-free region immediately after it returns
  // (floc_telemetry_test counts on this).
  dc::MutexLock lock(mutex_);
  while (started_ < static_cast<size_t>(spawn)) done_cv_.Wait(lock);
}

ThreadPool::~ThreadPool() {
  {
    dc::MutexLock lock(mutex_);
    stop_ = true;
  }
  wake_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::RunShards(Job& job) {
  while (true) {
    // Cancellation is honoured at the claim boundary only: a shard that
    // was claimed before the token fired still runs to completion, so
    // every shard that exists in the output is bit-identical to the
    // uncancelled sweep.
    if (job.stop != nullptr && job.stop->stop_requested()) return;
    size_t shard = job.next.fetch_add(1, std::memory_order_relaxed);
    if (shard >= job.shards) return;
    size_t begin = shard * job.grain;
    size_t end = std::min(begin + job.grain, job.total);
    try {
      (*job.fn)(begin, end, shard);
    } catch (...) {
      dc::MutexLock lock(job.error_mutex);
      // Keep the exception from the lowest-indexed throwing shard: every
      // shard always runs, so this choice is independent of scheduling.
      if (!job.error || shard < job.error_shard) {
        job.error = std::current_exception();
        job.error_shard = shard;
      }
    }
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  while (true) {
    Job* job = nullptr;
    {
      dc::MutexLock lock(mutex_);
      while (!stop_ && (job_ == nullptr || generation_ == seen_generation)) {
        wake_cv_.Wait(lock);
      }
      if (stop_) return;
      seen_generation = generation_;
      job = job_;
      ++participants_;
    }
    RunShards(*job);
    {
      dc::MutexLock lock(mutex_);
      --participants_;
    }
    done_cv_.NotifyOne();
  }
}

void ThreadPool::ParallelFor(size_t total, size_t grain, const ShardFn& fn,
                             const StopToken* stop) {
  if (total == 0) return;
  if (grain == 0) grain = ShardGrain(total);
  Job job;
  job.fn = &fn;
  job.total = total;
  job.grain = grain;
  job.shards = ShardCount(total, grain);
  job.stop = stop;

  // Per-shard wall-time accounting for the imbalance histogram. When
  // metrics are off this is one predicted branch and zero allocation
  // (the default-constructed vector and std::function hold nothing).
  // When on, each claimant writes its shard's duration into a disjoint
  // slot; the coordinator reduces after the join (published by the
  // join-side mutex acquire), so the wrapper cannot perturb results.
  const bool timed = obs::internal::MetricsEnabled();
  std::vector<int64_t> shard_ns;
  ShardFn timed_fn;
  if (timed) {
    shard_ns.assign(job.shards, 0);
    timed_fn = [&fn, &shard_ns](size_t begin, size_t end, size_t shard) {
      int64_t start = obs::MonotonicNowNs();
      fn(begin, end, shard);
      shard_ns[shard] = obs::MonotonicNowNs() - start;
    };
    job.fn = &timed_fn;
  }

  Post(job);
  // The coordinating thread always participates; with no workers this is
  // the entire (serial) execution, over identical shard boundaries.
  RunShards(job);
  // All shards are claimed once our own RunShards returns, but a worker
  // may still be inside its final shard (or about to discover the
  // cursor is exhausted).
  Retract();

  if (timed) {
    const PoolMetrics& metrics = PoolMetrics::Get();
    metrics.sweeps->Inc();
    metrics.shards->Inc(job.shards);
    int64_t max_ns = 0;
    int64_t sum_ns = 0;
    for (int64_t ns : shard_ns) {
      max_ns = std::max(max_ns, ns);
      sum_ns += ns;
    }
    double mean_ns =
        static_cast<double>(sum_ns) / static_cast<double>(job.shards);
    metrics.shard_imbalance->Observe(
        mean_ns > 0.0 ? static_cast<double>(max_ns) / mean_ns : 1.0);
  }

  std::exception_ptr error = TakeError(job);
  if (error) std::rethrow_exception(error);
}

void ThreadPool::RunBeside(const HelperFn& helper,
                           const std::function<void()>& coordinator) {
  StopToken done;
  ShardFn shard_fn = [&helper, &done](size_t, size_t, size_t shard) {
    helper(shard, done);
  };
  // One shard per worker; the token also stops a late worker from
  // claiming a helper index at all.
  Job job;
  job.fn = &shard_fn;
  job.total = workers_.size();
  job.grain = 1;
  job.shards = workers_.size();
  job.stop = &done;
  Post(job);
  std::exception_ptr coordinator_error;
  try {
    coordinator();
  } catch (...) {
    coordinator_error = std::current_exception();
  }
  done.RequestStop();
  Retract();
  std::exception_ptr error =
      coordinator_error ? coordinator_error : TakeError(job);
  if (error) std::rethrow_exception(error);
}

void ThreadPool::Post(Job& job) {
  if (workers_.empty()) return;
  {
    dc::MutexLock lock(mutex_);
    job_ = &job;
    ++generation_;
  }
  wake_cv_.NotifyAll();
}

void ThreadPool::Retract() {
  if (workers_.empty()) return;
  // Wait for every participant to leave before the caller's `job` goes
  // out of scope.
  dc::MutexLock lock(mutex_);
  job_ = nullptr;
  while (participants_ != 0) done_cv_.Wait(lock);
}

std::exception_ptr ThreadPool::TakeError(Job& job) {
  // Every participant has left, but the analysis (rightly) insists the
  // error slot is read under its lock.
  dc::MutexLock lock(job.error_mutex);
  return job.error;
}

void ParallelApply(ThreadPool* pool, size_t total, const ThreadPool::ShardFn& fn,
                   size_t serial_cutoff, const StopToken* stop) {
  if (total == 0) return;
  if (pool == nullptr || pool->threads() <= 1 || total < serial_cutoff) {
    size_t grain = ShardGrain(total);
    size_t shards = ShardCount(total, grain);
    for (size_t shard = 0; shard < shards; ++shard) {
      // Same cancellation boundary as the pooled path: between shards.
      if (stop != nullptr && stop->stop_requested()) return;
      size_t begin = shard * grain;
      size_t end = std::min(begin + grain, total);
      fn(begin, end, shard);
    }
    return;
  }
  pool->ParallelFor(total, fn, stop);
}

}  // namespace deltaclus::engine
