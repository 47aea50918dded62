// Tests for the invariant-audit layer (src/core/audit.h) and FLOC's
// opt-in audit mode (FlocConfig::audit).
#include "src/core/audit.h"

#include <gtest/gtest.h>

#include "src/core/floc.h"
#include "src/core/floc_phases.h"
#include "src/data/synthetic.h"
#include "src/util/rng.h"

namespace deltaclus {
namespace {

class AuditDeathTest : public ::testing::Test {
 protected:
  AuditDeathTest() { ::testing::GTEST_FLAG(death_test_style) = "threadsafe"; }
};

constexpr double kTol = 1e-9;

DataMatrix MakeMatrix(size_t rows, size_t cols, double density,
                      uint64_t seed) {
  Rng rng(seed);
  DataMatrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      if (rng.Bernoulli(density)) m.Set(i, j, rng.Uniform(-10, 10));
    }
  }
  return m;
}

TEST(AuditTest, ConsistentViewPassesAfterToggleStream) {
  DataMatrix m = MakeMatrix(20, 12, 0.8, 1);
  ClusterWorkspace ws(m,
                      Cluster::FromMembers(20, 12, {0, 3, 5, 9}, {1, 2, 7}));
  ResidueEngine engine;
  Constraints cons;
  Rng rng(2);
  for (int step = 0; step < 200; ++step) {
    if (rng.Bernoulli(0.5)) {
      ws.ToggleRow(rng.UniformIndex(20));
    } else {
      ws.ToggleCol(rng.UniformIndex(12));
    }
    // Alternate between an empty and a filled residue cache so the audit
    // runs both with and without its cached-residue check.
    if (step % 2 == 0) engine.Residue(ws);
    AuditClusterWorkspace(ws, cons, ResidueNorm::kMeanAbsolute, kTol,
                          "test");
  }
}

TEST(AuditTest, FullViewAuditPassesOnBothNorms) {
  DataMatrix m = MakeMatrix(15, 15, 0.6, 3);
  ClusterWorkspace ws(m,
                      Cluster::FromMembers(15, 15, {1, 4, 6, 8}, {0, 3, 9}));
  Constraints cons;
  AuditClusterWorkspace(ws, cons, ResidueNorm::kMeanAbsolute, kTol, "test");
  AuditClusterWorkspace(ws, cons, ResidueNorm::kMeanSquared, kTol, "test");
}

TEST_F(AuditDeathTest, CatchesVolumeCorruption) {
  DataMatrix m = MakeMatrix(10, 8, 1.0, 4);
  Cluster c = Cluster::FromMembers(10, 8, {1, 3, 5}, {0, 2, 4});
  ClusterStats stats;
  stats.Build(m, c);
  // Deliberate corruption: re-adding a member row double-counts its
  // entries in volume, total, and the column sums.
  stats.AddRow(m, c, 3);
  EXPECT_DEATH(AuditStatsMatchRecompute(m, c, stats, kTol, "corrupt"),
               "corrupt: incremental volume drifted from recompute");
}

TEST_F(AuditDeathTest, CatchesColumnSumCorruption) {
  DataMatrix m = MakeMatrix(10, 8, 1.0, 5);
  Cluster c = Cluster::FromMembers(10, 8, {1, 3, 5}, {0, 2, 4});
  ClusterStats stats;
  stats.Build(m, c);
  // Remove then re-add column 2 of a *mutated* cluster list: stats now
  // describe a different column set than `c`.
  Cluster wrong = c;
  wrong.RemoveRow(5);
  stats.RemoveCol(m, wrong, 2);
  stats.AddCol(m, c, 2);
  EXPECT_DEATH(AuditStatsMatchRecompute(m, c, stats, kTol, "corrupt"),
               "corrupt");
}

TEST_F(AuditDeathTest, CatchesResidueDriftFromACorruptPane) {
  DataMatrix m = MakeMatrix(10, 8, 1.0, 8);
  ClusterWorkspace ws(m, Cluster::FromMembers(10, 8, {1, 3, 5}, {0, 2, 4}));
  // Deliberate corruption: one pane entry no longer mirrors the matrix,
  // so a scan over the live workspace drifts from a fresh rebuild while
  // the stats still match their recompute.
  const PackedPane& pane = ws.EnsurePane();
  const_cast<PackedPane&>(pane).values[pane.row_slots[0] * pane.phys_stride] +=
      100.0;
  Constraints cons;
  EXPECT_DEATH(AuditClusterWorkspace(ws, cons, ResidueNorm::kMeanAbsolute,
                                     kTol, "pane"),
               "pane: stats-backed residue .* drifted from from-scratch "
               "recompute");
}

// One cluster over a dense random matrix whose packed pane is corrupted
// as in CatchesResidueDriftFromACorruptPane. A toggle that adds a row or
// column patches the pane in place, so the corrupt entry survives into
// the audit that every toggling phase runs under FlocConfig::audit.
struct CorruptPaneFixture {
  DataMatrix matrix = MakeMatrix(10, 8, 1.0, 8);
  std::vector<ClusterWorkspace> views;
  std::vector<double> scores;
  ConstraintTracker tracker;

  explicit CorruptPaneFixture(const FlocConfig& config)
      : tracker(matrix, config.constraints) {
    views.emplace_back(matrix,
                       Cluster::FromMembers(10, 8, {1, 3, 5}, {0, 2, 4}));
    const PackedPane& pane = views[0].EnsurePane();
    const_cast<PackedPane&>(pane)
        .values[pane.row_slots[0] * pane.phys_stride] += 100.0;
    tracker.Rebuild(views);
    ResidueEngine engine;
    scores.push_back(ObjectiveScore(engine.Residue(views[0]),
                                    views[0].stats().Volume(),
                                    config.target_residue));
  }
};

TEST_F(AuditDeathTest, ApplySweepAuditsEveryToggle) {
  FlocConfig config;
  config.audit = true;
  config.fresh_gains_at_apply = false;  // apply the action as given
  CorruptPaneFixture f(config);
  Action add_row;
  add_row.target = ActionTarget::kRow;
  add_row.index = 7;
  add_row.cluster = 0;
  add_row.gain = 1.0;
  double score_sum = f.scores[0];
  Rng rng(1);
  BestPrefixSelector selector(score_sum);
  ActionApplier applier(config);
  EXPECT_DEATH(applier.Apply({add_row}, {0}, 0, f.views, f.scores, score_sum,
                             f.tracker, rng, selector),
               "move_phase: stats-backed residue .* drifted");
}

TEST_F(AuditDeathTest, RefineSweepAuditsEveryToggle) {
  FlocConfig config;
  config.audit = true;
  // Removals are blocked, and the volume reward makes additions gain, so
  // the sweep only grows the cluster around the corrupt pane entry.
  config.target_residue = 100.0;
  config.constraints.min_rows = 3;
  config.constraints.min_cols = 3;
  CorruptPaneFixture f(config);
  EXPECT_DEATH(RefineSweep(config, f.matrix, f.views, f.scores, f.tracker,
                           /*memo=*/nullptr, /*audit_occupancy=*/false),
               "RefineSweep: stats-backed residue .* drifted");
}

TEST_F(AuditDeathTest, CatchesOccupancyViolation) {
  // Column 3 is almost entirely missing, so any cluster containing it
  // violates alpha = 0.9 occupancy.
  DataMatrix m = MakeMatrix(10, 8, 1.0, 6);
  for (size_t i = 1; i < 10; ++i) m.SetMissing(i, 3);
  Cluster c = Cluster::FromMembers(10, 8, {1, 2, 4, 6}, {0, 3, 5});
  EXPECT_FALSE(OccupancySatisfied(m, c, 0.9));
  // Rows are audited before columns, so the first located failure is a
  // member row starved by the missing column.
  EXPECT_DEATH(AuditOccupancy(m, c, 0.9, "occ"),
               "occ: row [0-9]+ fell below alpha-occupancy");
}

TEST(AuditTest, OccupancySatisfiedOnDenseCluster) {
  DataMatrix m = MakeMatrix(10, 8, 1.0, 7);
  Cluster c = Cluster::FromMembers(10, 8, {0, 1, 2}, {0, 1, 2});
  EXPECT_TRUE(OccupancySatisfied(m, c, 1.0));
  EXPECT_TRUE(OccupancySatisfied(m, c, 0.0));
}

// --- FLOC's audit mode end-to-end. ---

SyntheticDataset PlantedData(uint64_t seed) {
  SyntheticConfig config;
  config.rows = 80;
  config.cols = 20;
  config.num_clusters = 2;
  config.volume_mean = 60;
  config.col_fraction = 0.25;
  config.noise_stddev = 0.5;
  config.seed = seed;
  return GenerateSynthetic(config);
}

TEST(FlocAuditTest, AuditedRunMatchesUnauditedRun) {
  SyntheticDataset data = PlantedData(11);
  FlocConfig config;
  config.num_clusters = 6;
  config.target_residue = 1.0;
  config.perform_negative_actions = false;
  config.refine_passes = 2;
  config.reseed_rounds = 1;
  config.rng_seed = 13;

  FlocResult plain = Floc(config).Run(data.matrix);
  config.audit = true;
  FlocResult audited = Floc(config).Run(data.matrix);

  // Audit mode only observes; it must not perturb the search.
  ASSERT_EQ(plain.clusters.size(), audited.clusters.size());
  for (size_t c = 0; c < plain.clusters.size(); ++c) {
    EXPECT_TRUE(plain.clusters[c] == audited.clusters[c]) << "cluster " << c;
  }
  EXPECT_DOUBLE_EQ(plain.average_residue, audited.average_residue);
}

TEST(FlocAuditTest, AuditedRunWithConstraintsAndMissingValues) {
  SyntheticDataset data = PlantedData(17);
  // Punch holes so occupancy is non-trivial.
  Rng rng(19);
  DataMatrix matrix = data.matrix;
  for (size_t i = 0; i < matrix.rows(); ++i) {
    for (size_t j = 0; j < matrix.cols(); ++j) {
      if (rng.Bernoulli(0.15)) matrix.SetMissing(i, j);
    }
  }
  FlocConfig config;
  config.num_clusters = 4;
  config.constraints.alpha = 0.5;
  config.target_residue = 1.0;
  config.perform_negative_actions = false;
  config.refine_passes = 1;
  config.rng_seed = 23;
  config.audit = true;
  FlocResult result = Floc(config).Run(matrix);
  EXPECT_EQ(result.clusters.size(), 4u);
}

TEST(FlocAuditTest, PaperModeAuditedRunCompletes) {
  SyntheticDataset data = PlantedData(29);
  FlocConfig config;
  config.num_clusters = 5;
  config.rng_seed = 31;
  config.audit = true;
  FlocResult result = Floc(config).Run(data.matrix);
  EXPECT_EQ(result.clusters.size(), 5u);
}

}  // namespace
}  // namespace deltaclus
