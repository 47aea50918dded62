#include "src/core/cluster_workspace.h"

#include <gtest/gtest.h>

#include "src/core/audit.h"
#include "src/core/residue.h"
#include "src/obs/metrics.h"
#include "src/data/synthetic.h"
#include "src/util/rng.h"

namespace deltaclus {
namespace {

DataMatrix SmallMatrix() {
  return DataMatrix::FromOptionalRows({
      {1.0, 2.0, 3.0, 4.0},
      {2.0, 3.0, 4.0, 5.0},
      {5.0, std::nullopt, 7.0, 8.0},
      {1.0, 1.0, std::nullopt, 9.0},
  });
}

Cluster SmallCluster() {
  return Cluster::FromMembers(4, 4, {0, 1, 2}, {0, 2, 3});
}

TEST(ClusterWorkspaceTest, CachedResidueMatchesFreshWorkspace) {
  DataMatrix m = SmallMatrix();
  ClusterWorkspace ws(m, SmallCluster());
  ResidueEngine engine;
  // First call fills the cache; repeated calls serve from it. All must be
  // bit-identical to the same cluster scanned in a freshly built
  // workspace, and agree with the naive reference.
  double first = engine.Residue(ws);
  EXPECT_TRUE(ws.ResidueCached(CachedNormTag::kMeanAbsolute));
  EXPECT_NEAR(first, ClusterResidueNaive(m, SmallCluster()), 1e-12);
  ClusterWorkspace fresh(m, SmallCluster());
  double expected = engine.Residue(fresh);
  EXPECT_EQ(first, expected);
  EXPECT_EQ(engine.Residue(ws), expected);
  EXPECT_EQ(engine.Residue(ws), expected);
}

TEST(ClusterWorkspaceTest, TogglesInvalidateTheCache) {
  DataMatrix m = SmallMatrix();
  ClusterWorkspace ws(m, SmallCluster());
  ResidueEngine engine;
  engine.Residue(ws);
  ASSERT_TRUE(ws.ResidueCached(CachedNormTag::kMeanAbsolute));

  ws.ToggleRow(3);
  EXPECT_FALSE(ws.ResidueCached(CachedNormTag::kMeanAbsolute));
  engine.Residue(ws);
  ASSERT_TRUE(ws.ResidueCached(CachedNormTag::kMeanAbsolute));

  ws.ToggleCol(1);
  EXPECT_FALSE(ws.ResidueCached(CachedNormTag::kMeanAbsolute));
  engine.Residue(ws);

  ws.Reset(SmallCluster());
  EXPECT_FALSE(ws.ResidueCached(CachedNormTag::kMeanAbsolute));
}

TEST(ClusterWorkspaceTest, NormChangeMissesTheCache) {
  DataMatrix m = SmallMatrix();
  ClusterWorkspace ws(m, SmallCluster());
  ResidueEngine abs_engine(ResidueNorm::kMeanAbsolute);
  ResidueEngine sq_engine(ResidueNorm::kMeanSquared);
  double abs_residue = abs_engine.Residue(ws);
  // A cache filled under one norm must not satisfy the other.
  EXPECT_FALSE(ws.ResidueCached(CachedNormTag::kMeanSquared));
  double sq_residue = sq_engine.Residue(ws);
  EXPECT_TRUE(ws.ResidueCached(CachedNormTag::kMeanSquared));
  // And refilling under the second norm computed the right value.
  ClusterWorkspace fresh(m, SmallCluster());
  EXPECT_EQ(sq_residue, sq_engine.Residue(fresh));
  fresh.InvalidateResidue();
  EXPECT_EQ(abs_residue, abs_engine.Residue(fresh));
}

TEST(ClusterWorkspaceTest, AfterToggleAndGainMatchRealToggle) {
  // Every virtual toggle -- additions and removals, rows and columns,
  // over a cluster with gaps -- against toggling a copy for real and
  // rescanning, and against the naive reference on the toggled cluster.
  DataMatrix m = SmallMatrix();
  ClusterWorkspace ws(m, SmallCluster());
  ResidueEngine engine;
  double before = engine.Residue(ws);
  for (size_t i = 0; i < m.rows(); ++i) {
    size_t new_volume = 0;
    double predicted = engine.ResidueAfterToggleRow(ws, i, &new_volume);
    ClusterWorkspace toggled = ws;
    toggled.ToggleRow(i);
    double actual = engine.Residue(toggled);
    EXPECT_NEAR(predicted, actual, 1e-12) << "row " << i;
    EXPECT_NEAR(predicted, ClusterResidueNaive(m, toggled.cluster()), 1e-12)
        << "row " << i;
    EXPECT_EQ(new_volume, toggled.stats().Volume()) << "row " << i;
    EXPECT_NEAR(engine.GainToggleRow(ws, i), before - actual, 1e-12)
        << "row " << i;
  }
  for (size_t j = 0; j < m.cols(); ++j) {
    size_t new_volume = 0;
    double predicted = engine.ResidueAfterToggleCol(ws, j, &new_volume);
    ClusterWorkspace toggled = ws;
    toggled.ToggleCol(j);
    double actual = engine.Residue(toggled);
    EXPECT_NEAR(predicted, actual, 1e-12) << "col " << j;
    EXPECT_NEAR(predicted, ClusterResidueNaive(m, toggled.cluster()), 1e-12)
        << "col " << j;
    EXPECT_EQ(new_volume, toggled.stats().Volume()) << "col " << j;
    EXPECT_NEAR(engine.GainToggleCol(ws, j), before - actual, 1e-12)
        << "col " << j;
  }
}

TEST(ClusterWorkspaceTest, RandomizedToggleWalkStaysBitIdenticalToRescan) {
  SyntheticConfig config;
  config.rows = 40;
  config.cols = 30;
  config.num_clusters = 3;
  config.noise_stddev = 1.0;
  config.missing_fraction = 0.2;
  config.seed = 11;
  SyntheticDataset data = GenerateSynthetic(config);

  // `ws` keeps its cache and patches its pane across toggles; `twin`
  // takes the same toggles (so its stats hold the same bits) but drops
  // its residue cache and pane before every read, so each of its reads
  // is a full rescan over a freshly rebuilt pane.
  ClusterWorkspace ws(data.matrix,
                      Cluster::FromMembers(40, 30, {0, 1, 2, 3}, {0, 1, 2}));
  ClusterWorkspace twin = ws;
  ResidueEngine engine;
  Rng rng(99);
  for (int step = 0; step < 400; ++step) {
    if (rng.Bernoulli(0.5)) {
      size_t i = rng.UniformIndex(40);
      ws.ToggleRow(i);
      twin.ToggleRow(i);
    } else {
      size_t j = rng.UniformIndex(30);
      ws.ToggleCol(j);
      twin.ToggleCol(j);
    }
    // Read the cached residue twice per step (fill + hit) and require
    // bit-identity with the always-rescanning twin.
    twin.InvalidateResidue();
    twin.InvalidatePane();
    double expected = engine.Residue(twin);
    ASSERT_EQ(engine.Residue(ws), expected) << "step " << step;
    ASSERT_EQ(engine.Residue(ws), expected) << "step " << step;
  }
  // The walk's incrementally-updated stats still agree with the naive
  // reference on the final membership.
  EXPECT_NEAR(engine.Residue(ws), ClusterResidueNaive(data.matrix,
                                                      ws.cluster()),
              1e-9);
}

TEST(ClusterWorkspaceTest, AuditAcceptsConsistentWorkspace) {
  DataMatrix m = SmallMatrix();
  ClusterWorkspace ws(m, SmallCluster());
  ResidueEngine engine;
  engine.Residue(ws);  // fill the cache so the audit exercises it
  Constraints cons;
  AuditClusterWorkspace(ws, cons, ResidueNorm::kMeanAbsolute,
                        kDefaultAuditTolerance, "test");
  // Also fine with an empty (invalidated) cache.
  ws.InvalidateResidue();
  AuditClusterWorkspace(ws, cons, ResidueNorm::kMeanAbsolute,
                        kDefaultAuditTolerance, "test");
}

TEST(ClusterWorkspaceDeathTest, AuditCatchesStaleCache) {
  DataMatrix m = SmallMatrix();
  ClusterWorkspace ws(m, SmallCluster());
  ResidueEngine engine;
  engine.Residue(ws);
  // Forge a stale cache: membership moves but the cache is restored as if
  // no toggle had happened. The audit must flag it.
  double numerator = ws.CachedResidueNumerator();
  size_t volume = ws.CachedResidueVolume();
  ws.ToggleRow(3);
  ws.CacheResidue(CachedNormTag::kMeanAbsolute, numerator, volume);
  Constraints cons;
  EXPECT_DEATH(AuditClusterWorkspace(ws, cons, ResidueNorm::kMeanAbsolute,
                                     kDefaultAuditTolerance, "stale"),
               "stale");
}

TEST(ClusterWorkspaceTest, EmptyClusterHasZeroResidue) {
  DataMatrix m = SmallMatrix();
  ClusterWorkspace ws(m);
  ResidueEngine engine;
  EXPECT_EQ(engine.Residue(ws), 0.0);
  EXPECT_TRUE(ws.ResidueCached(CachedNormTag::kMeanAbsolute));
  EXPECT_EQ(ws.CachedResidueVolume(), 0u);
}

TEST(ClusterWorkspaceTest, AlternatingNormsNeverServeStaleNumerators) {
  // The cross-norm interplay the residue cache must survive: one
  // workspace queried by a kMeanAbsolute engine and a kMeanSquared
  // engine back and forth, with mutations in between. Each read must be
  // bit-identical to a fresh rescan under that engine's norm -- a cached
  // numerator accumulated under the other norm must never leak through.
  DataMatrix m = SmallMatrix();
  ClusterWorkspace ws(m, SmallCluster());
  ClusterWorkspace twin = ws;
  ResidueEngine abs_engine(ResidueNorm::kMeanAbsolute);
  ResidueEngine sq_engine(ResidueNorm::kMeanSquared);
  // `twin` holds the same stats bits but rescans on every read.
  auto rescan = [&twin](ResidueEngine& engine) {
    twin.InvalidateResidue();
    return engine.Residue(twin);
  };
  for (int round = 0; round < 3; ++round) {
    ASSERT_EQ(abs_engine.Residue(ws), rescan(abs_engine));
    ASSERT_EQ(sq_engine.Residue(ws), rescan(sq_engine));
    ASSERT_EQ(abs_engine.Residue(ws), rescan(abs_engine));
    size_t i = static_cast<size_t>(round) % m.rows();
    ws.ToggleRow(i);
    twin.ToggleRow(i);
  }
}

// The logical pane contents (resolved through both indirections) must
// mirror the cluster's submatrix exactly.
void ExpectPaneMirrorsCluster(const ClusterWorkspace& ws) {
  const PackedPane& pane = ws.EnsurePane();
  const Cluster& c = ws.cluster();
  const DataMatrix& m = ws.matrix();
  ASSERT_EQ(pane.num_cols, c.col_ids().size());
  ASSERT_EQ(pane.row_slots.size(), c.row_ids().size());
  for (size_t pr = 0; pr < c.row_ids().size(); ++pr) {
    for (size_t pc = 0; pc < c.col_ids().size(); ++pc) {
      size_t i = c.row_ids()[pr];
      size_t j = c.col_ids()[pc];
      ASSERT_EQ(pane.MaskAt(pr, pc) != 0, m.IsSpecified(i, j))
          << "pr=" << pr << " pc=" << pc;
      if (m.IsSpecified(i, j)) {
        ASSERT_EQ(pane.ValueAt(pr, pc), m.Value(i, j))
            << "pr=" << pr << " pc=" << pc;
      }
    }
  }
}

TEST(ClusterWorkspaceTest, PaneTracksMembershipEpoch) {
  DataMatrix m = SmallMatrix();
  ClusterWorkspace ws(m, SmallCluster());
  EXPECT_FALSE(ws.PaneValid());
  ws.EnsurePane();
  EXPECT_TRUE(ws.PaneValid());
  ExpectPaneMirrorsCluster(ws);

  // A single toggle against a fresh pane *patches* it -- the pane stays
  // valid without a rebuild and still mirrors the new membership.
  ws.ToggleCol(1);
  EXPECT_TRUE(ws.PaneValid());
  ExpectPaneMirrorsCluster(ws);

  // Reset is a wholesale change: the pane goes stale and EnsurePane
  // performs the compacting rebuild for the new shape.
  ws.Reset(SmallCluster());
  EXPECT_FALSE(ws.PaneValid());
  const PackedPane& rebuilt = ws.EnsurePane();
  EXPECT_TRUE(ws.PaneValid());
  EXPECT_EQ(rebuilt.num_cols, ws.cluster().col_ids().size());
  EXPECT_EQ(rebuilt.dead_rows, 0u);  // canonical compact layout
  EXPECT_GE(rebuilt.phys_stride, rebuilt.num_cols);
}

TEST(ClusterWorkspaceTest, SingleTogglesPatchThePaneWithoutRebuilds) {
  DataMatrix m = SmallMatrix();
  ClusterWorkspace ws(m, SmallCluster());
  bool was_enabled = obs::MetricsRegistry::Enabled();
  obs::MetricsRegistry::SetEnabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* rebuilds = registry.GetCounter("floc.pane.rebuilds");
  obs::Counter* patches = registry.GetCounter("floc.pane.patches");

  ws.EnsurePane();
  uint64_t rebuilds_before = rebuilds->Value();
  uint64_t patches_before = patches->Value();

  // The FLOC sweep's only mutations are single toggles; none of these
  // may pay a full pane rebuild.
  ws.ToggleRow(3);   // add a row
  ws.ToggleCol(1);   // add a column
  ws.ToggleRow(0);   // remove a row
  ws.ToggleCol(3);   // remove a column
  EXPECT_TRUE(ws.PaneValid());
  ws.EnsurePane();
  EXPECT_EQ(rebuilds->Value(), rebuilds_before);
  EXPECT_EQ(patches->Value(), patches_before + 4);
  ExpectPaneMirrorsCluster(ws);

  obs::MetricsRegistry::SetEnabled(was_enabled);
}

TEST(ClusterWorkspaceTest, RandomizedTogglePatchingMatchesRebuild) {
  SyntheticConfig config;
  config.rows = 60;
  config.cols = 40;
  config.num_clusters = 3;
  config.noise_stddev = 1.0;
  config.missing_fraction = 0.15;
  config.seed = 23;
  SyntheticDataset data = GenerateSynthetic(config);

  ClusterWorkspace ws(data.matrix,
                      Cluster::FromMembers(60, 40, {0, 1, 2, 3, 4},
                                           {0, 1, 2, 3}));
  ws.EnsurePane();
  Rng rng(7);
  // Long biased walk: more adds than removals early, then flip, so the
  // pane crosses append-capacity and dead-fraction compaction
  // boundaries as well as interior column shifts. After *every* toggle
  // the logical pane must equal a from-scratch gather of the cluster's
  // submatrix, entry for entry -- whether the toggle was patched or the
  // pane was rebuilt.
  for (int step = 0; step < 600; ++step) {
    if (rng.Bernoulli(0.5)) {
      ws.ToggleRow(rng.UniformIndex(60));
    } else {
      ws.ToggleCol(rng.UniformIndex(40));
    }
    ExpectPaneMirrorsCluster(ws);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace deltaclus
