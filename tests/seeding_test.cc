#include "src/core/seeding.h"

#include <gtest/gtest.h>

#include "src/core/cluster_stats.h"
#include "src/core/constraints.h"
#include "src/data/synthetic.h"

namespace deltaclus {
namespace {

DataMatrix Dense(size_t rows, size_t cols) {
  return DataMatrix(rows, cols, 1.0);
}

TEST(SeedingTest, ProducesRequestedNumberOfSeeds) {
  DataMatrix m = Dense(100, 40);
  Rng rng(1);
  SeedingConfig config;
  std::vector<Cluster> seeds = GenerateSeeds(m, config, 7, rng);
  EXPECT_EQ(seeds.size(), 7u);
}

TEST(SeedingTest, SeedSizesMatchProbabilitiesInExpectation) {
  DataMatrix m = Dense(400, 100);
  Rng rng(2);
  SeedingConfig config;
  config.row_probability = 0.1;  // expect ~40 rows
  config.col_probability = 0.3;  // expect ~30 cols
  double rows = 0;
  double cols = 0;
  const int n = 50;
  std::vector<Cluster> seeds = GenerateSeeds(m, config, n, rng);
  for (const Cluster& s : seeds) {
    rows += s.NumRows();
    cols += s.NumCols();
  }
  EXPECT_NEAR(rows / n, 40.0, 5.0);
  EXPECT_NEAR(cols / n, 30.0, 4.0);
}

TEST(SeedingTest, EnforcesMinimumSize) {
  DataMatrix m = Dense(50, 50);
  Rng rng(3);
  SeedingConfig config;
  config.row_probability = 0.0;  // would produce empty seeds
  config.col_probability = 0.0;
  // Empty draws are topped up to exactly the constant floor.
  for (const Cluster& s : GenerateSeeds(m, config, 10, rng)) {
    EXPECT_EQ(s.NumRows(), kMinSeedSide);
    EXPECT_EQ(s.NumCols(), kMinSeedSide);
  }
  // The floor never asks for more lines than the matrix has.
  DataMatrix single_col = Dense(50, 1);
  for (const Cluster& s : GenerateSeeds(single_col, config, 10, rng)) {
    EXPECT_EQ(s.NumRows(), kMinSeedSide);
    EXPECT_EQ(s.NumCols(), 1u);
  }
}

TEST(SeedingTest, SeedsAreSeedDeterministic) {
  DataMatrix m = Dense(60, 30);
  SeedingConfig config;
  Rng a(5);
  Rng b(5);
  std::vector<Cluster> s1 = GenerateSeeds(m, config, 5, a);
  std::vector<Cluster> s2 = GenerateSeeds(m, config, 5, b);
  ASSERT_EQ(s1.size(), s2.size());
  for (size_t t = 0; t < s1.size(); ++t) EXPECT_TRUE(s1[t] == s2[t]);
}

TEST(SeedingTest, MixedVolumesVary) {
  DataMatrix m = Dense(500, 100);
  Rng rng(7);
  SeedingConfig config;
  config.mixed_volumes = true;
  config.volume_mean = 400;
  config.volume_variance = 40000;  // heavily dispersed
  std::vector<Cluster> seeds = GenerateSeeds(m, config, 40, rng);
  size_t min_size = SIZE_MAX;
  size_t max_size = 0;
  for (const Cluster& s : seeds) {
    size_t size = s.NumRows() * s.NumCols();
    min_size = std::min(min_size, size);
    max_size = std::max(max_size, size);
  }
  EXPECT_GT(max_size, 2 * min_size);
}

TEST(SeedingTest, MixedVolumesHitTargetMeanApproximately) {
  DataMatrix m = Dense(1000, 100);
  Rng rng(11);
  SeedingConfig config;
  config.mixed_volumes = true;
  config.volume_mean = 500;
  config.volume_variance = 0;  // deterministic target volume
  std::vector<Cluster> seeds = GenerateSeeds(m, config, 60, rng);
  double avg = 0;
  for (const Cluster& s : seeds) avg += s.NumRows() * s.NumCols();
  avg /= seeds.size();
  EXPECT_NEAR(avg, 500.0, 120.0);
}

TEST(SeedingTest, RepairOccupancyNoOpWhenAlphaZero) {
  DataMatrix m(4, 4);  // everything missing
  Cluster c = Cluster::FromMembers(4, 4, {0, 1}, {0, 1});
  RepairOccupancy(m, 0.0, &c);
  EXPECT_EQ(c.NumRows(), 2u);
}

TEST(SeedingTest, RepairOccupancyDropsSparseMembers) {
  // Row 2 has no specified entries among the cluster's columns: any
  // alpha > 0 must drop it.
  DataMatrix m = DataMatrix::FromOptionalRows({
      {1.0, 2.0, 3.0},
      {4.0, 5.0, 6.0},
      {std::nullopt, std::nullopt, 1.0},
  });
  Cluster c = Cluster::FromMembers(3, 3, {0, 1, 2}, {0, 1});
  RepairOccupancy(m, 0.5, &c);
  EXPECT_FALSE(c.HasRow(2));
  EXPECT_TRUE(c.HasRow(0));
  EXPECT_TRUE(c.HasRow(1));
}

TEST(SeedingTest, RepairOccupancyResultSatisfiesAlpha) {
  // Random sparse matrix: after repair every member row/col must meet
  // the occupancy threshold (or the cluster is empty).
  Rng rng(13);
  DataMatrix m(40, 20);
  for (size_t i = 0; i < 40; ++i) {
    for (size_t j = 0; j < 20; ++j) {
      if (rng.Bernoulli(0.5)) m.Set(i, j, 1.0);
    }
  }
  const double alpha = 0.6;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng seed_rng(100 + seed);
    SeedingConfig config;
    config.row_probability = 0.3;
    config.col_probability = 0.4;
    Cluster c = GenerateSeeds(m, config, 1, seed_rng)[0];
    RepairOccupancy(m, alpha, &c);
    if (c.NumRows() == 0 || c.NumCols() == 0) continue;
    ClusterStats stats;
    stats.Build(m, c);
    for (uint32_t i : c.row_ids()) {
      EXPECT_GE(stats.RowCount(i) + 1e-9, alpha * c.NumCols());
    }
    for (uint32_t j : c.col_ids()) {
      EXPECT_GE(stats.ColCount(j) + 1e-9, alpha * c.NumRows());
    }
  }
}

TEST(SeedingTest, RepairSeedEnforcesVolumeBounds) {
  DataMatrix m = Dense(100, 50);
  Rng rng(17);
  Constraints cons;
  cons.min_volume = 200;
  cons.max_volume = 800;
  SeedingConfig config;
  config.row_probability = 0.02;
  config.col_probability = 0.05;
  for (int rep = 0; rep < 10; ++rep) {
    Cluster seed = GenerateSeeds(m, config, 1, rng)[0];
    ASSERT_TRUE(RepairSeed(m, cons, &seed, rng));
    ClusterView view(m, seed);
    EXPECT_GE(view.stats().Volume(), 200u);
    EXPECT_LE(view.stats().Volume(), 800u);
  }
}

TEST(SeedingTest, RepairSeedEnforcesSizeBounds) {
  DataMatrix m = Dense(60, 60);
  Rng rng(19);
  Constraints cons;
  cons.min_rows = 5;
  cons.min_cols = 4;
  cons.max_rows = 20;
  cons.max_cols = 10;
  SeedingConfig config;
  config.row_probability = 0.8;  // oversized seeds
  config.col_probability = 0.8;
  for (int rep = 0; rep < 10; ++rep) {
    Cluster seed = GenerateSeeds(m, config, 1, rng)[0];
    ASSERT_TRUE(RepairSeed(m, cons, &seed, rng));
    EXPECT_GE(seed.NumRows(), 5u);
    EXPECT_LE(seed.NumRows(), 20u);
    EXPECT_GE(seed.NumCols(), 4u);
    EXPECT_LE(seed.NumCols(), 10u);
  }
}

TEST(SeedingTest, RepairSeedSatisfiesUnaryConstraintsOnSparseData) {
  SyntheticConfig sc;
  sc.rows = 80;
  sc.cols = 30;
  sc.num_clusters = 2;
  sc.missing_fraction = 0.3;
  sc.seed = 23;
  SyntheticDataset data = GenerateSynthetic(sc);
  Rng rng(29);
  Constraints cons;
  cons.alpha = 0.6;
  cons.min_rows = 3;
  cons.min_cols = 3;
  SeedingConfig config;
  for (int rep = 0; rep < 10; ++rep) {
    Cluster seed = GenerateSeeds(data.matrix, config, 1, rng)[0];
    if (!RepairSeed(data.matrix, cons, &seed, rng)) continue;
    ClusterView view(data.matrix, seed);
    EXPECT_TRUE(SatisfiesUnaryConstraints(view, cons));
  }
}

}  // namespace
}  // namespace deltaclus
