// Multi-threaded determinism: the gain-determination scan fans out over
// the persistent engine thread pool (src/engine/thread_pool.h), and the
// contract (FlocConfig::threads) is that results are bit-identical for
// any thread count. These tests pin that down by running the same seeded
// configuration at threads=1, 2 and 8 and asserting the runs took
// identical actions: same per-iteration history, same final clusters,
// same residues. The TSan preset (scripts/check.sh tsan) runs this file
// to prove the sharded scan race-free.
#include <gtest/gtest.h>

#include "src/core/floc.h"
#include "src/data/movielens_synth.h"
#include "src/data/synthetic.h"
#include "src/engine/thread_pool.h"
#include "src/obs/telemetry.h"

namespace deltaclus {
namespace {

SyntheticDataset PlantedData(uint64_t seed) {
  SyntheticConfig config;
  config.rows = 150;
  config.cols = 40;
  config.num_clusters = 3;
  config.volume_mean = 150;
  config.col_fraction = 0.2;
  config.noise_stddev = 0.5;
  config.seed = seed;
  return GenerateSynthetic(config);
}

// Runs `config` at threads = 1, 2 and 8 and asserts identical outcomes.
void ExpectIdenticalAcrossThreadCounts(FlocConfig config,
                                       const DataMatrix& matrix) {
  config.telemetry = obs::TelemetryLevel::kSummary;
  config.threads = 1;
  FlocResult seq = Floc(config).Run(matrix);
  const std::vector<obs::IterationTelemetry>& seq_log =
      seq.telemetry.iteration_log;
  for (int threads : {2, 8}) {
    config.threads = threads;
    FlocResult par = Floc(config).Run(matrix);
    const std::vector<obs::IterationTelemetry>& par_log =
        par.telemetry.iteration_log;

    // Identical actions => identical per-iteration history...
    ASSERT_EQ(seq.iterations, par.iterations) << "threads=" << threads;
    ASSERT_EQ(seq_log.size(), par_log.size()) << "threads=" << threads;
    for (size_t t = 0; t < seq_log.size(); ++t) {
      EXPECT_EQ(seq_log[t].actions_applied, par_log[t].actions_applied)
          << "threads=" << threads << " iteration " << t;
      EXPECT_EQ(seq_log[t].improved, par_log[t].improved)
          << "threads=" << threads << " iteration " << t;
      EXPECT_DOUBLE_EQ(seq_log[t].best_average_score,
                       par_log[t].best_average_score)
          << "threads=" << threads << " iteration " << t;
    }

    // ...and an identical final clustering, bit for bit.
    ASSERT_EQ(seq.clusters.size(), par.clusters.size())
        << "threads=" << threads;
    for (size_t c = 0; c < seq.clusters.size(); ++c) {
      EXPECT_TRUE(seq.clusters[c] == par.clusters[c])
          << "threads=" << threads << " cluster " << c;
      EXPECT_DOUBLE_EQ(seq.residues[c], par.residues[c])
          << "threads=" << threads << " cluster " << c;
    }
    EXPECT_DOUBLE_EQ(seq.average_residue, par.average_residue)
        << "threads=" << threads;
  }
}

TEST(FlocDeterminismTest, PaperModeIdenticalAcrossThreadCounts) {
  SyntheticDataset data = PlantedData(101);
  FlocConfig config;
  config.num_clusters = 8;
  config.rng_seed = 7;
  ExpectIdenticalAcrossThreadCounts(config, data.matrix);
}

TEST(FlocDeterminismTest, VolumeSeekingModeIdenticalAcrossThreadCounts) {
  SyntheticDataset data = PlantedData(103);
  FlocConfig config;
  config.num_clusters = 10;
  config.target_residue = 1.0;
  config.perform_negative_actions = false;
  config.refine_passes = 2;
  config.reseed_rounds = 1;
  config.rng_seed = 11;
  ExpectIdenticalAcrossThreadCounts(config, data.matrix);
}

TEST(FlocDeterminismTest, ConstrainedRunIdenticalAcrossThreadCounts) {
  SyntheticDataset data = PlantedData(107);
  FlocConfig config;
  config.num_clusters = 6;
  config.constraints.alpha = 0.6;
  config.constraints.max_overlap = 0.5;
  config.constraints.min_rows = 3;
  config.constraints.min_cols = 3;
  config.target_residue = 1.0;
  config.perform_negative_actions = false;
  config.rng_seed = 13;
  ExpectIdenticalAcrossThreadCounts(config, data.matrix);
}

TEST(FlocDeterminismTest, SparseRatingsIdenticalAcrossThreadCounts) {
  // Sparse, MovieLens-shaped data drives the column-major plane and the
  // workspace residue cache through the occupancy-constrained paths.
  MovieLensSynthConfig synth;
  synth.users = 120;
  synth.movies = 200;
  synth.target_ratings = 4000;
  synth.min_ratings_per_user = 10;
  synth.num_groups = 3;
  synth.group_users = 25;
  synth.group_movies = 25;
  synth.seed = 19;
  MovieLensSynthDataset data = GenerateMovieLens(synth);

  FlocConfig config;
  config.num_clusters = 4;
  config.constraints.alpha = 0.6;
  config.target_residue = 1.0;
  config.perform_negative_actions = false;
  config.rng_seed = 23;
  ExpectIdenticalAcrossThreadCounts(config, data.matrix);
}

TEST(FlocDeterminismTest, AuditModeDoesNotChangeResults) {
  // The residue cache is an observable no-op: running with audit on
  // (which recomputes everything from scratch after every action and
  // cross-checks the cache) must produce the exact clustering the
  // uninstrumented run does.
  SyntheticDataset data = PlantedData(113);
  FlocConfig config;
  config.num_clusters = 6;
  config.target_residue = 1.0;
  config.perform_negative_actions = false;
  config.rng_seed = 29;

  config.audit = false;
  config.threads = 1;
  FlocResult plain = Floc(config).Run(data.matrix);
  config.audit = true;
  for (int threads : {1, 2, 8}) {
    config.threads = threads;
    FlocResult audited = Floc(config).Run(data.matrix);
    ASSERT_EQ(plain.clusters.size(), audited.clusters.size())
        << "threads=" << threads;
    for (size_t c = 0; c < plain.clusters.size(); ++c) {
      EXPECT_TRUE(plain.clusters[c] == audited.clusters[c])
          << "threads=" << threads << " cluster " << c;
      EXPECT_DOUBLE_EQ(plain.residues[c], audited.residues[c])
          << "threads=" << threads;
    }
    EXPECT_DOUBLE_EQ(plain.average_residue, audited.average_residue)
        << "threads=" << threads;
  }
}

TEST(FlocDeterminismTest, ZeroThreadsMeansHardwareConcurrency) {
  // threads=0 resolves to std::thread::hardware_concurrency() -- and, by
  // the bit-identical contract, still matches the serial run.
  SyntheticDataset data = PlantedData(127);
  FlocConfig config;
  config.num_clusters = 5;
  config.rng_seed = 31;
  config.threads = 1;
  FlocResult base = Floc(config).Run(data.matrix);
  config.threads = 0;
  FlocResult hw = Floc(config).Run(data.matrix);
  ASSERT_EQ(base.clusters.size(), hw.clusters.size());
  for (size_t c = 0; c < base.clusters.size(); ++c) {
    EXPECT_TRUE(base.clusters[c] == hw.clusters[c]) << "cluster " << c;
  }
  EXPECT_DOUBLE_EQ(base.average_residue, hw.average_residue);
}

TEST(FlocDeterminismTest, InjectedPoolMatchesOwnedPool) {
  // An externally owned pool (FlocConfig::pool) takes precedence over
  // `threads` and gives the same results; back-to-back runs reuse it.
  SyntheticDataset data = PlantedData(131);
  FlocConfig config;
  config.num_clusters = 5;
  config.rng_seed = 37;
  config.threads = 1;
  FlocResult base = Floc(config).Run(data.matrix);

  engine::ThreadPool pool(4);
  config.pool = &pool;
  Floc shared(config);
  for (int run = 0; run < 2; ++run) {
    FlocResult injected = shared.Run(data.matrix);
    ASSERT_EQ(base.clusters.size(), injected.clusters.size()) << run;
    for (size_t c = 0; c < base.clusters.size(); ++c) {
      EXPECT_TRUE(base.clusters[c] == injected.clusters[c])
          << "run " << run << " cluster " << c;
    }
    EXPECT_DOUBLE_EQ(base.average_residue, injected.average_residue) << run;
  }
}

TEST(FlocDeterminismTest, OddThreadCountsAgreeToo) {
  // Chunked work splitting must not depend on the split points.
  SyntheticDataset data = PlantedData(109);
  FlocConfig config;
  config.num_clusters = 5;
  config.rng_seed = 17;
  config.threads = 1;
  FlocResult base = Floc(config).Run(data.matrix);
  for (int threads : {2, 3, 5, 7}) {
    config.threads = threads;
    FlocResult run = Floc(config).Run(data.matrix);
    ASSERT_EQ(base.clusters.size(), run.clusters.size()) << threads;
    for (size_t c = 0; c < base.clusters.size(); ++c) {
      EXPECT_TRUE(base.clusters[c] == run.clusters[c])
          << "threads=" << threads << " cluster " << c;
    }
    EXPECT_DOUBLE_EQ(base.average_residue, run.average_residue)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace deltaclus
