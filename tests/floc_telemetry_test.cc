#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include "src/core/floc.h"
#include "src/data/synthetic.h"
#include "src/engine/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/quantile_histogram.h"
#include "src/obs/telemetry.h"

// Global allocation counter for the no-allocation-off-path test. The
// replacement operators serve the whole test binary; only the delta
// across a measured region matters. Under ASan the replacements are
// disabled — they pair malloc with ASan's intercepted operator new and
// trip alloc-dealloc-mismatch — so that test self-skips there; the
// default (uninstrumented) preset still enforces the guarantee.
#if defined(__SANITIZE_ADDRESS__)
#define DELTACLUS_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DELTACLUS_ALLOC_COUNTING 0
#endif
#endif
#ifndef DELTACLUS_ALLOC_COUNTING
#define DELTACLUS_ALLOC_COUNTING 1
#endif

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

#if DELTACLUS_ALLOC_COUNTING
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // DELTACLUS_ALLOC_COUNTING

namespace deltaclus {
namespace {

SyntheticDataset SmallData(uint64_t seed) {
  SyntheticConfig config;
  config.rows = 120;
  config.cols = 24;
  config.num_clusters = 3;
  config.volume_mean = 120;
  config.col_fraction = 0.25;
  config.noise_stddev = 0.5;
  config.seed = seed;
  return GenerateSynthetic(config);
}

FlocConfig BaseConfig() {
  FlocConfig config;
  config.num_clusters = 4;
  config.rng_seed = 7;
  config.refine_passes = 0;
  return config;
}

TEST(GainBucketTest, MatchesDocumentedBounds) {
  EXPECT_EQ(obs::GainBucket(-100.0), 0u);  // <= -10
  EXPECT_EQ(obs::GainBucket(-10.0), 0u);
  EXPECT_EQ(obs::GainBucket(-5.0), 1u);
  EXPECT_EQ(obs::GainBucket(0.0), 4u);
  EXPECT_EQ(obs::GainBucket(0.005), 5u);
  EXPECT_EQ(obs::GainBucket(100.0), obs::kGainBucketCount - 1);
}

TEST(BlockCountsTest, AddMergeTotal) {
  obs::BlockCounts a;
  a.Add(BlockReason::kSize);
  a.Add(BlockReason::kSize);
  a.Add(BlockReason::kOverlap);
  obs::BlockCounts b;
  b.Add(BlockReason::kVolume);
  a.Merge(b);
  EXPECT_EQ(a.counts[static_cast<size_t>(BlockReason::kSize)], 2u);
  EXPECT_EQ(a.counts[static_cast<size_t>(BlockReason::kVolume)], 1u);
  EXPECT_EQ(a.counts[static_cast<size_t>(BlockReason::kOverlap)], 1u);
  EXPECT_EQ(a.Total(), 4u);
}

TEST(ParseTelemetryLevelTest, KnownAndUnknownNames) {
  EXPECT_EQ(obs::ParseTelemetryLevel("off"), obs::TelemetryLevel::kOff);
  EXPECT_EQ(obs::ParseTelemetryLevel("summary"),
            obs::TelemetryLevel::kSummary);
  EXPECT_EQ(obs::ParseTelemetryLevel("full"), obs::TelemetryLevel::kFull);
  EXPECT_FALSE(obs::ParseTelemetryLevel("verbose").has_value());
}

TEST(FlocTelemetryTest, OffByDefaultRecordsNoIterationLog) {
  SyntheticDataset data = SmallData(1);
  FlocResult result = Floc(BaseConfig()).Run(data.matrix);
  EXPECT_EQ(result.telemetry.level, obs::TelemetryLevel::kOff);
  EXPECT_TRUE(result.telemetry.iteration_log.empty());
  // Run-level facts live in the perf report, populated at every level.
  EXPECT_EQ(result.perf.iterations, result.iterations);
  EXPECT_GT(result.perf.total_seconds, 0.0);
  EXPECT_TRUE(result.perf.stopped_reason.empty());
}

TEST(FlocTelemetryTest, SummaryLogMatchesResultHistory) {
  SyntheticDataset data = SmallData(2);
  FlocConfig config = BaseConfig();
  config.telemetry = obs::TelemetryLevel::kSummary;
  FlocResult result = Floc(config).Run(data.matrix);

  const obs::RunTelemetry& tel = result.telemetry;
  EXPECT_EQ(tel.level, obs::TelemetryLevel::kSummary);
  ASSERT_EQ(tel.iteration_log.size(), result.iterations);
  EXPECT_EQ(result.perf.iterations, result.iterations);
  for (size_t i = 0; i < tel.iteration_log.size(); ++i) {
    const obs::IterationTelemetry& it = tel.iteration_log[i];
    EXPECT_EQ(it.iteration, i);
    // Only the final iteration of the (single) move phase fails to
    // improve; an improving one keeps the prefix it scored.
    EXPECT_EQ(it.improved, i + 1 < tel.iteration_log.size());
    if (it.improved) {
      EXPECT_NEAR(it.best_so_far, it.best_average_score, 1e-9);
    }
    EXPECT_LE(it.best_prefix, it.actions_applied);
    EXPECT_GE(it.wall_seconds, 0.0);
    // Every row/column is either determined or fully blocked.
    EXPECT_EQ(it.determined + it.fully_blocked,
              data.matrix.rows() + data.matrix.cols());
    // Summary level skips the per-cluster trajectories.
    EXPECT_TRUE(it.cluster_residues.empty());
  }
  uint64_t applied_sum = 0;
  for (const auto& it : tel.iteration_log) applied_sum += it.actions_applied;
  EXPECT_EQ(tel.total_actions_applied, applied_sum);
}

TEST(FlocTelemetryTest, BestSoFarIsMonotoneAndMatchesFinalResidue) {
  SyntheticDataset data = SmallData(3);
  FlocConfig config = BaseConfig();
  config.telemetry = obs::TelemetryLevel::kSummary;
  // No post-processing: the move phase's final best average residue IS
  // the run's result, so the trajectory must land exactly on it.
  config.refine_passes = 0;
  config.reseed_rounds = 0;
  FlocResult result = Floc(config).Run(data.matrix);

  const obs::RunTelemetry& tel = result.telemetry;
  ASSERT_FALSE(tel.iteration_log.empty());
  double prev = tel.iteration_log.front().best_so_far;
  for (const obs::IterationTelemetry& it : tel.iteration_log) {
    EXPECT_LE(it.best_so_far, prev + 1e-12) << "iteration " << it.iteration;
    prev = it.best_so_far;
  }
  EXPECT_NEAR(tel.iteration_log.back().best_so_far, result.average_residue,
              1e-9);
  // best_iteration is the iteration number of the last improving entry.
  size_t last_improving = 0;
  for (const obs::IterationTelemetry& it : tel.iteration_log) {
    if (it.improved) last_improving = it.iteration;
  }
  EXPECT_EQ(tel.best_iteration, last_improving);
}

TEST(FlocTelemetryTest, FullLevelRecordsClusterTrajectories) {
  SyntheticDataset data = SmallData(4);
  FlocConfig config = BaseConfig();
  config.telemetry = obs::TelemetryLevel::kFull;
  FlocResult result = Floc(config).Run(data.matrix);

  const obs::RunTelemetry& tel = result.telemetry;
  ASSERT_FALSE(tel.iteration_log.empty());
  for (const obs::IterationTelemetry& it : tel.iteration_log) {
    ASSERT_EQ(it.cluster_residues.size(), config.num_clusters);
    ASSERT_EQ(it.cluster_volumes.size(), config.num_clusters);
    for (uint64_t v : it.cluster_volumes) EXPECT_GT(v, 0u);
    uint64_t hist_sum = 0;
    for (uint64_t c : it.gain_histogram) hist_sum += c;
    EXPECT_EQ(hist_sum, it.determined);
  }
}

TEST(FlocTelemetryTest, ConstraintsShowUpInBlockCounts) {
  SyntheticDataset data = SmallData(5);
  FlocConfig config = BaseConfig();
  config.telemetry = obs::TelemetryLevel::kSummary;
  // A tight size ceiling forces blocked additions from the start.
  config.constraints.max_rows = 6;
  config.constraints.max_cols = 6;
  FlocResult result = Floc(config).Run(data.matrix);

  uint64_t blocked_total = 0;
  for (const obs::IterationTelemetry& it : result.telemetry.iteration_log) {
    blocked_total += it.blocked_by.Total();
  }
  EXPECT_GT(blocked_total, 0u);
  uint64_t size_blocked = 0;
  for (const obs::IterationTelemetry& it : result.telemetry.iteration_log) {
    size_blocked +=
        it.blocked_by.counts[static_cast<size_t>(BlockReason::kSize)];
  }
  EXPECT_GT(size_blocked, 0u);
}

TEST(FlocTelemetryTest, BlockCountsIdenticalAcrossThreadCounts) {
  SyntheticDataset data = SmallData(6);
  FlocConfig config = BaseConfig();
  config.telemetry = obs::TelemetryLevel::kSummary;
  config.constraints.max_rows = 8;
  config.threads = 1;
  FlocResult one = Floc(config).Run(data.matrix);
  config.threads = 4;
  FlocResult four = Floc(config).Run(data.matrix);

  ASSERT_EQ(one.telemetry.iteration_log.size(),
            four.telemetry.iteration_log.size());
  for (size_t i = 0; i < one.telemetry.iteration_log.size(); ++i) {
    EXPECT_EQ(one.telemetry.iteration_log[i].blocked_by.counts,
              four.telemetry.iteration_log[i].blocked_by.counts)
        << "iteration " << i;
  }
}

TEST(FlocTelemetryTest, PhaseTimingsArePopulated) {
  SyntheticDataset data = SmallData(7);
  FlocConfig config = BaseConfig();
  config.telemetry = obs::TelemetryLevel::kSummary;
  config.refine_passes = 2;
  FlocResult result = Floc(config).Run(data.matrix);

  const obs::PerfReport& perf = result.perf;
  auto wall = [&perf](const std::string& phase) {
    for (const obs::PerfPhase& p : perf.phases) {
      if (p.name == phase) return p.wall_seconds;
    }
    ADD_FAILURE() << "no perf phase " << phase;
    return 0.0;
  };
  EXPECT_GT(wall("seeding"), 0.0);
  EXPECT_GT(wall("move_phase"), 0.0);
  EXPECT_GE(wall("refine"), 0.0);
  EXPECT_GE(perf.total_cpu_seconds, 0.0);
  // The report total covers seeding plus everything after it.
  EXPECT_LE(wall("seeding") + wall("move_phase"), perf.total_seconds + 1e-9);
  EXPECT_NEAR(perf.total_seconds, result.elapsed_seconds + wall("seeding"),
              1e-12);
}

TEST(FlocTelemetryTest, JsonlSinkStreamsIterationsAndRunEnd) {
  SyntheticDataset data = SmallData(8);
  std::ostringstream os;
  obs::JsonlTelemetrySink sink(os);
  FlocConfig config = BaseConfig();
  config.telemetry = obs::TelemetryLevel::kSummary;
  config.telemetry_sink = &sink;
  FlocResult result = Floc(config).Run(data.matrix);

  std::istringstream lines(os.str());
  std::string line;
  size_t iteration_lines = 0;
  size_t run_end_lines = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("{\"event\":\"iteration\",", 0) == 0) ++iteration_lines;
    if (line.rfind("{\"event\":\"run_end\",", 0) == 0) ++run_end_lines;
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(iteration_lines, result.iterations);
  EXPECT_EQ(run_end_lines, 1u);
}

TEST(FlocTelemetryTest, RunTelemetryJsonContainsLog) {
  SyntheticDataset data = SmallData(9);
  FlocConfig config = BaseConfig();
  config.telemetry = obs::TelemetryLevel::kFull;
  FlocResult result = Floc(config).Run(data.matrix);
  std::string json = result.telemetry.Json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"level\":\"full\""), std::string::npos);
  EXPECT_NE(json.find("\"iteration_log\":["), std::string::npos);
  EXPECT_NE(json.find("\"gain_bucket_bounds\":["), std::string::npos);
  EXPECT_NE(json.find("\"cluster_residues\":["), std::string::npos);
}

TEST(FlocTelemetryTest, OffPathCollectorHooksDoNotAllocate) {
#if !DELTACLUS_ALLOC_COUNTING
  GTEST_SKIP() << "allocation-counting operators disabled under ASan";
#endif
  obs::TelemetryCollector collector(obs::TelemetryLevel::kOff, nullptr);
  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (size_t i = 0; i < 1000; ++i) {
    obs::IterationTelemetry* itel = collector.BeginIteration(i);
    ASSERT_EQ(itel, nullptr);
    collector.FinishIteration();
  }
  uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
}

TEST(FlocTelemetryTest, OffPathMetricsHooksDoNotAllocate) {
#if !DELTACLUS_ALLOC_COUNTING
  GTEST_SKIP() << "allocation-counting operators disabled under ASan";
#endif
  // The hooks this PR adds -- LatencyRecorder around iterations and the
  // pool's per-shard timing wrapper -- must stay allocation-free (and
  // observation-free) while metrics are disabled, like the collector.
  ASSERT_FALSE(obs::MetricsRegistry::Enabled());
  obs::QuantileHistogram hist;
  engine::ThreadPool pool(4);
  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (size_t i = 0; i < 1000; ++i) {
    obs::LatencyRecorder recorder(&hist);
  }
  std::atomic<uint64_t> touched{0};
  pool.ParallelFor(1024, [&touched](size_t begin, size_t end, size_t) {
    touched.fetch_add(end - begin, std::memory_order_relaxed);
  });
  uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  EXPECT_EQ(hist.Count(), 0u);
  EXPECT_EQ(touched.load(), 1024u);
}

// A streambuf whose overflow always fails, standing in for a full disk:
// every write attempt puts the stream into a failed state.
class FailingBuf : public std::streambuf {
 protected:
  int_type overflow(int_type) override { return traits_type::eof(); }
  std::streamsize xsputn(const char*, std::streamsize) override { return 0; }
};

TEST(FlocTelemetryTest, JsonlSinkSurvivesWriteFailure) {
  SyntheticDataset data = SmallData(11);
  FailingBuf buf;
  std::ostream broken(&buf);
  obs::JsonlTelemetrySink sink(broken);
  FlocConfig config = BaseConfig();
  config.telemetry = obs::TelemetryLevel::kSummary;
  config.telemetry_sink = &sink;
  // The run completes normally -- a telemetry sink failure must never
  // abort mining -- and the sink reports the degradation via ok().
  FlocResult result = Floc(config).Run(data.matrix);
  EXPECT_GT(result.iterations, 0u);
  EXPECT_FALSE(result.clusters.empty());
  EXPECT_FALSE(sink.ok());
}

TEST(FlocTelemetryTest, JsonlSinkStopsWritingAfterFirstFailure) {
  // Once failed_, later events are skipped outright (no useless write
  // syscalls, no interleaved partial lines if the stream recovers).
  FailingBuf buf;
  std::ostream broken(&buf);
  obs::JsonlTelemetrySink sink(broken);
  obs::IterationTelemetry itel;
  itel.iteration = 0;
  sink.OnIteration(itel);
  EXPECT_FALSE(sink.ok());
  // Re-point the stream at a working buffer: the sink must stay latched.
  std::stringbuf good;
  broken.rdbuf(&good);
  broken.clear();
  obs::RunTelemetry run;
  sink.OnRunEnd(run);
  EXPECT_FALSE(sink.ok());
  EXPECT_TRUE(good.str().empty());
}

TEST(FlocTelemetryTest, JsonlSinkShortWriteOnRunEndIsReported) {
  // Failure on the final run_end write (not just per-iteration lines)
  // must also latch.
  FailingBuf buf;
  std::ostream broken(&buf);
  obs::JsonlTelemetrySink sink(broken);
  obs::RunTelemetry run;
  run.total_actions_applied = 3;
  sink.OnRunEnd(run);
  EXPECT_FALSE(sink.ok());
}

TEST(FlocTelemetryTest, JsonlSinkOkOnHealthyStream) {
  std::ostringstream os;
  obs::JsonlTelemetrySink sink(os);
  obs::IterationTelemetry itel;
  sink.OnIteration(itel);
  obs::RunTelemetry run;
  sink.OnRunEnd(run);
  EXPECT_TRUE(sink.ok());
  EXPECT_FALSE(os.str().empty());
}

}  // namespace
}  // namespace deltaclus
