#include "src/core/floc.h"

#include <gtest/gtest.h>

#include "src/data/synthetic.h"
#include "src/eval/metrics.h"
#include "src/obs/telemetry.h"

namespace deltaclus {
namespace {

// Small planted-cluster dataset used by most tests.
SyntheticDataset SmallData(double noise, uint64_t seed) {
  SyntheticConfig config;
  config.rows = 200;
  config.cols = 30;
  config.num_clusters = 3;
  config.volume_mean = 180;  // 30 rows x 6 cols
  config.col_fraction = 0.2;
  config.noise_stddev = noise;
  config.seed = seed;
  return GenerateSynthetic(config);
}

FlocConfig QualityConfig() {
  FlocConfig config;
  config.num_clusters = 12;
  config.seeding.row_probability = 0.1;
  config.seeding.col_probability = 0.2;
  config.target_residue = 1.0;
  config.perform_negative_actions = false;
  config.constraints.min_cols = 3;
  config.constraints.min_rows = 4;
  config.refine_passes = 3;
  config.reseed_rounds = 2;
  config.rng_seed = 11;
  return config;
}

TEST(FlocTest, RunProducesRequestedClusterCount) {
  SyntheticDataset data = SmallData(0.0, 1);
  FlocConfig config;
  config.num_clusters = 5;
  config.rng_seed = 2;
  FlocResult result = Floc(config).Run(data.matrix);
  EXPECT_EQ(result.clusters.size(), 5u);
  EXPECT_EQ(result.residues.size(), 5u);
  EXPECT_GE(result.iterations, 1u);
  EXPECT_GT(result.elapsed_seconds, 0.0);
}

TEST(FlocTest, ResultResiduesMatchReportedAverage) {
  SyntheticDataset data = SmallData(1.0, 2);
  FlocConfig config;
  config.num_clusters = 4;
  config.rng_seed = 3;
  FlocResult result = Floc(config).Run(data.matrix);
  double sum = 0;
  for (double r : result.residues) sum += r;
  EXPECT_NEAR(result.average_residue, sum / result.residues.size(), 1e-9);
  // And they agree with an independent recomputation.
  EXPECT_NEAR(result.average_residue,
              AverageResidue(data.matrix, result.clusters), 1e-9);
}

TEST(FlocTest, DeterministicForFixedSeed) {
  SyntheticDataset data = SmallData(0.5, 3);
  FlocConfig config = QualityConfig();
  FlocResult a = Floc(config).Run(data.matrix);
  FlocResult b = Floc(config).Run(data.matrix);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (size_t c = 0; c < a.clusters.size(); ++c) {
    EXPECT_TRUE(a.clusters[c] == b.clusters[c]) << "cluster " << c;
  }
  EXPECT_DOUBLE_EQ(a.average_residue, b.average_residue);
}

TEST(FlocTest, ThreadsDoNotChangeResult) {
  SyntheticDataset data = SmallData(0.5, 4);
  FlocConfig config = QualityConfig();
  config.threads = 1;
  FlocResult seq = Floc(config).Run(data.matrix);
  config.threads = 4;
  FlocResult par = Floc(config).Run(data.matrix);
  ASSERT_EQ(seq.clusters.size(), par.clusters.size());
  for (size_t c = 0; c < seq.clusters.size(); ++c) {
    EXPECT_TRUE(seq.clusters[c] == par.clusters[c]) << "cluster " << c;
  }
}

TEST(FlocTest, PaperModeBestAverageNeverIncreasesAcrossIterations) {
  // In the paper's literal mode every iteration's accepted clustering
  // must be at least as good as the previous best.
  SyntheticDataset data = SmallData(1.0, 5);
  FlocConfig config;
  config.num_clusters = 6;
  config.rng_seed = 7;
  config.refine_passes = 0;
  config.telemetry = obs::TelemetryLevel::kSummary;
  FlocResult result = Floc(config).Run(data.matrix);
  ASSERT_EQ(result.telemetry.iteration_log.size(), result.iterations);
  double prev = std::numeric_limits<double>::infinity();
  for (const obs::IterationTelemetry& it : result.telemetry.iteration_log) {
    if (it.improved) {
      EXPECT_LE(it.best_average_score, prev + 1e-9);
      prev = it.best_average_score;
    }
  }
}

TEST(FlocTest, TerminatesWithinMaxIterations) {
  SyntheticDataset data = SmallData(2.0, 6);
  FlocConfig config;
  config.num_clusters = 4;
  config.max_iterations = 5;
  config.rng_seed = 9;
  FlocResult result = Floc(config).Run(data.matrix);
  EXPECT_LE(result.iterations, 5u);
}

TEST(FlocTest, LastHistoryEntryNotImprovedUnlessCapped) {
  SyntheticDataset data = SmallData(1.0, 7);
  FlocConfig config;
  config.num_clusters = 4;
  config.rng_seed = 10;
  config.reseed_rounds = 0;
  config.telemetry = obs::TelemetryLevel::kSummary;
  FlocResult result = Floc(config).Run(data.matrix);
  const std::vector<obs::IterationTelemetry>& log =
      result.telemetry.iteration_log;
  ASSERT_FALSE(log.empty());
  if (result.iterations < config.max_iterations) {
    EXPECT_FALSE(log.back().improved);
  }
}

TEST(FlocTest, RunWithSeedsUsesProvidedSeeds) {
  SyntheticDataset data = SmallData(0.0, 8);
  // Seed exactly on an embedded cluster: FLOC must keep something at
  // least as good (residue ~0).
  std::vector<Cluster> seeds = {data.embedded[0], data.embedded[1]};
  FlocConfig config;
  config.rng_seed = 12;
  FlocResult result = Floc(config).RunWithSeeds(data.matrix, seeds);
  EXPECT_EQ(result.clusters.size(), 2u);
  EXPECT_LE(result.average_residue, 1e-6);
}

TEST(FlocTest, EmptySeedListReturnsEmptyResult) {
  SyntheticDataset data = SmallData(0.0, 9);
  FlocConfig config;
  FlocResult result = Floc(config).RunWithSeeds(data.matrix, {});
  EXPECT_TRUE(result.clusters.empty());
  EXPECT_EQ(result.iterations, 0u);
}

TEST(FlocTest, RecoversPlantedClustersWithQualityRecipe) {
  SyntheticDataset data = SmallData(0.3, 10);
  FlocConfig config = QualityConfig();
  FlocResult result = Floc(config).Run(data.matrix);
  MatchQuality q =
      EntryRecallPrecision(data.matrix, data.embedded, result.clusters);
  // At this small scale with several seeds per block, a meaningful part
  // of the planted structure must be recovered.
  EXPECT_GT(q.recall, 0.3);
  EXPECT_GT(q.precision, 0.3);
}

TEST(FlocTest, ResultsRespectMinSizes) {
  SyntheticDataset data = SmallData(1.0, 11);
  FlocConfig config = QualityConfig();
  FlocResult result = Floc(config).Run(data.matrix);
  for (const Cluster& c : result.clusters) {
    EXPECT_GE(c.NumRows(), config.constraints.min_rows);
    EXPECT_GE(c.NumCols(), config.constraints.min_cols);
  }
}

TEST(FlocTest, ResultsRespectVolumeBounds) {
  SyntheticDataset data = SmallData(1.0, 12);
  FlocConfig config = QualityConfig();
  config.constraints.min_volume = 30;
  config.constraints.max_volume = 400;
  FlocResult result = Floc(config).Run(data.matrix);
  for (const Cluster& c : result.clusters) {
    ClusterView view(data.matrix, c);
    EXPECT_GE(view.stats().Volume(), 30u);
    EXPECT_LE(view.stats().Volume(), 400u);
  }
}

TEST(FlocTest, ResultsRespectMaxOverlap) {
  SyntheticDataset data = SmallData(1.0, 13);
  FlocConfig config = QualityConfig();
  config.constraints.max_overlap = 0.5;
  FlocResult result = Floc(config).Run(data.matrix);
  for (size_t a = 0; a < result.clusters.size(); ++a) {
    for (size_t b = a + 1; b < result.clusters.size(); ++b) {
      const Cluster& ca = result.clusters[a];
      const Cluster& cb = result.clusters[b];
      size_t shared = ca.SharedRows(cb) * ca.SharedCols(cb);
      size_t smaller = std::min(ca.NumRows() * ca.NumCols(),
                                cb.NumRows() * cb.NumCols());
      if (smaller == 0) continue;
      EXPECT_LE(static_cast<double>(shared), 0.5 * smaller + 1e-9)
          << "clusters " << a << ", " << b;
    }
  }
}

TEST(FlocTest, ResultsRespectOccupancyOnSparseData) {
  SyntheticConfig sc;
  sc.rows = 120;
  sc.cols = 30;
  sc.num_clusters = 2;
  sc.missing_fraction = 0.25;
  sc.seed = 14;
  SyntheticDataset data = GenerateSynthetic(sc);
  FlocConfig config;
  config.num_clusters = 4;
  config.constraints.alpha = 0.6;
  config.rng_seed = 15;
  FlocResult result = Floc(config).Run(data.matrix);
  for (const Cluster& c : result.clusters) {
    if (c.NumRows() == 0 || c.NumCols() == 0) continue;
    ClusterView view(data.matrix, c);
    for (uint32_t i : c.row_ids()) {
      EXPECT_GE(view.stats().RowCount(i) + 1e-9, 0.6 * c.NumCols());
    }
    for (uint32_t j : c.col_ids()) {
      EXPECT_GE(view.stats().ColCount(j) + 1e-9, 0.6 * c.NumRows());
    }
  }
}

TEST(FlocTest, StaleModeRunsAndTerminates) {
  SyntheticDataset data = SmallData(1.0, 16);
  FlocConfig config;
  config.num_clusters = 4;
  config.fresh_gains_at_apply = false;  // literal flowchart reading
  config.rng_seed = 17;
  FlocResult result = Floc(config).Run(data.matrix);
  EXPECT_EQ(result.clusters.size(), 4u);
  EXPECT_LE(result.iterations, config.max_iterations);
}

TEST(FlocTest, AllOrderingsRun) {
  SyntheticDataset data = SmallData(1.0, 18);
  for (ActionOrdering o : {ActionOrdering::kFixed, ActionOrdering::kRandom,
                           ActionOrdering::kWeightedRandom}) {
    FlocConfig config;
    config.num_clusters = 4;
    config.ordering = o;
    config.rng_seed = 19;
    FlocResult result = Floc(config).Run(data.matrix);
    EXPECT_EQ(result.clusters.size(), 4u) << ToString(o);
  }
}

TEST(FlocTest, TargetResidueGrowsClusters) {
  // Volume-seeking mode (the full quality recipe) must find
  // substantially more volume than the pure shrink-to-coherence
  // objective, which collapses clusters towards the minimum size.
  SyntheticDataset data = SmallData(0.3, 20);
  FlocConfig pure = QualityConfig();
  pure.target_residue = 0.0;
  pure.perform_negative_actions = true;
  pure.refine_passes = 0;
  pure.reseed_rounds = 0;
  FlocConfig seeking = QualityConfig();
  size_t pure_volume = AggregateVolume(
      data.matrix, Floc(pure).Run(data.matrix).clusters);
  size_t seeking_volume = AggregateVolume(
      data.matrix, Floc(seeking).Run(data.matrix).clusters);
  EXPECT_GT(seeking_volume, pure_volume);
}

TEST(FlocTest, HandlesMatrixWithMissingValues) {
  SyntheticConfig sc;
  sc.rows = 100;
  sc.cols = 20;
  sc.num_clusters = 2;
  sc.missing_fraction = 0.4;
  sc.seed = 22;
  SyntheticDataset data = GenerateSynthetic(sc);
  FlocConfig config;
  config.num_clusters = 3;
  config.rng_seed = 23;
  FlocResult result = Floc(config).Run(data.matrix);
  EXPECT_EQ(result.clusters.size(), 3u);
  for (double r : result.residues) EXPECT_GE(r, 0.0);
}

TEST(FlocTest, AnnealingModeRunsAndTerminates) {
  SyntheticDataset data = SmallData(0.5, 24);
  FlocConfig config = QualityConfig();
  config.perform_negative_actions = false;
  config.annealing_temperature = 0.5;
  FlocResult result = Floc(config).Run(data.matrix);
  EXPECT_EQ(result.clusters.size(), config.num_clusters);
  EXPECT_LE(result.iterations, config.max_iterations);
  // Quality should remain in the same ballpark as pure greedy.
  MatchQuality q =
      EntryRecallPrecision(data.matrix, data.embedded, result.clusters);
  EXPECT_GT(q.recall, 0.15);
}

TEST(FlocTest, AverageResidueUtility) {
  DataMatrix m = DataMatrix::FromRows({{1, 2}, {3, 4}});
  Cluster c = Cluster::FromMembers(2, 2, {0, 1}, {0, 1});
  EXPECT_NEAR(AverageResidue(m, {c, c}), ClusterResidueNaive(m, c), 1e-12);
  EXPECT_DOUBLE_EQ(AverageResidue(m, {}), 0.0);
}

}  // namespace
}  // namespace deltaclus
