#include "src/core/cluster_workspace.h"

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

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

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The logical pane contents (resolved through the row-slot indirection)
// must mirror the cluster's submatrix exactly: each pane row's run is
// the row's specified entries in column order, `RunLength` of them,
// with each entry's pane-column slot while the row has holes, and the
// row's base is the stats' bits. The same
// must hold for -- and agree bit for bit with -- a fresh rebuild of the
// same membership, so a patched pane is indistinguishable from one
// built from scratch.
void ExpectPaneMirrorsCluster(const ClusterWorkspace& ws) {
  const PackedPane& pane = ws.EnsurePane();
  ClusterWorkspace fresh = ws;
  fresh.InvalidatePane();
  const PackedPane& rebuilt = fresh.EnsurePane();
  const Cluster& c = ws.cluster();
  const DataMatrix& m = ws.matrix();
  size_t n = c.col_ids().size();
  ASSERT_EQ(pane.num_cols, n);
  ASSERT_EQ(rebuilt.num_cols, n);
  ASSERT_EQ(pane.row_slots.size(), c.row_ids().size());
  ASSERT_EQ(rebuilt.row_slots.size(), c.row_ids().size());
  for (size_t pr = 0; pr < c.row_ids().size(); ++pr) {
    size_t i = c.row_ids()[pr];
    std::vector<double> want_values;
    std::vector<uint16_t> want_slots;
    for (size_t pc = 0; pc < n; ++pc) {
      size_t j = c.col_ids()[pc];
      if (!m.IsSpecified(i, j)) continue;
      want_values.push_back(m.Value(i, j));
      want_slots.push_back(static_cast<uint16_t>(pc));
    }
    size_t len = want_values.size();
    ASSERT_EQ(pane.RunLength(pr), len) << "pr=" << pr;
    ASSERT_EQ(rebuilt.RunLength(pr), len) << "pr=" << pr;
    ASSERT_TRUE(SameBits(pane.RowBase(pr), ws.stats().RowBase(i)))
        << "pr=" << pr;
    ASSERT_TRUE(SameBits(rebuilt.RowBase(pr), ws.stats().RowBase(i)))
        << "pr=" << pr;
    ASSERT_EQ(pane.RowDense(pr), len == n) << "pr=" << pr;
    for (size_t k = 0; k < len; ++k) {
      ASSERT_TRUE(SameBits(pane.Row(pr)[k], want_values[k]))
          << "pr=" << pr << " k=" << k;
      ASSERT_TRUE(SameBits(rebuilt.Row(pr)[k], want_values[k]))
          << "pr=" << pr << " k=" << k;
      if (len == n) continue;  // a dense row's slots are implied
      ASSERT_EQ(pane.Slots(pr)[k], want_slots[k]) << "pr=" << pr << " k=" << k;
      ASSERT_EQ(rebuilt.Slots(pr)[k], want_slots[k])
          << "pr=" << pr << " k=" << k;
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

// The run upkeep of column patches on a 30%-missing matrix: seeded
// random toggle walks from several starting shapes, checked against the
// matrix and a fresh rebuild after every toggle. Rows gain and lose
// holes, runs shrink to nothing and grow back, and both patch-decline
// paths (capacity, dead rows) hand over to compacting rebuilds.
TEST(ClusterWorkspaceTest, RandomizedHoleyTogglePatchingMatchesRebuild) {
  SyntheticConfig config;
  config.rows = 50;
  config.cols = 30;
  config.num_clusters = 3;
  config.noise_stddev = 1.0;
  config.missing_fraction = 0.3;
  config.seed = 29;
  SyntheticDataset data = GenerateSynthetic(config);
  for (uint64_t seed : {3u, 11u, 31u}) {
    Rng rng(seed);
    ClusterWorkspace ws(
        data.matrix,
        Cluster::FromMembers(50, 30, rng.SampleWithoutReplacement(50, 6),
                             rng.SampleWithoutReplacement(30, 2)));
    ws.EnsurePane();
    for (int step = 0; step < 400; ++step) {
      if (rng.Bernoulli(0.5)) {
        ws.ToggleRow(rng.UniformIndex(50));
      } else {
        ws.ToggleCol(rng.UniformIndex(30));
      }
      ExpectPaneMirrorsCluster(ws);
      if (HasFatalFailure()) return;
    }
  }
}

DataMatrix HoleyMatrix() {
  // Row 0 dense; row 1's only hole is column 2; row 2 all missing;
  // row 3 holey at both ends; row 4 alternating.
  constexpr std::nullopt_t kNa = std::nullopt;
  return DataMatrix::FromOptionalRows({
      {1.0, 2.0, 3.0, 4.0, 5.0},
      {6.0, 7.0, kNa, 8.0, 9.0},
      {kNa, kNa, kNa, kNa, kNa},
      {kNa, 1.5, 2.5, 3.5, kNa},
      {4.5, kNa, 5.5, kNa, 6.5},
  });
}

TEST(ClusterWorkspaceTest, ColumnRemovalAtFirstAndLastPanePosition) {
  DataMatrix m = HoleyMatrix();
  ClusterWorkspace ws(m, Cluster::FromMembers(5, 5, {0, 1, 2, 3, 4},
                                              {0, 1, 2, 3, 4}));
  ws.EnsurePane();
  ws.ToggleCol(0);  // first pane position
  EXPECT_TRUE(ws.PaneValid());
  ExpectPaneMirrorsCluster(ws);
  ws.ToggleCol(4);  // last pane position
  EXPECT_TRUE(ws.PaneValid());
  ExpectPaneMirrorsCluster(ws);
  ws.ToggleCol(0);  // and back in at the front and the back
  ws.ToggleCol(4);
  EXPECT_TRUE(ws.PaneValid());
  ExpectPaneMirrorsCluster(ws);
}

TEST(ClusterWorkspaceTest, RowTurnsDenseThenHoleyAgain) {
  DataMatrix m = HoleyMatrix();
  ClusterWorkspace ws(m, Cluster::FromMembers(5, 5, {0, 1}, {0, 1, 2, 3}));
  const PackedPane& pane = ws.EnsurePane();
  ASSERT_FALSE(pane.RowDense(1));
  ws.ToggleCol(2);  // row 1's only hole leaves: its run is the whole row
  ASSERT_TRUE(ws.PaneValid());
  EXPECT_TRUE(ws.EnsurePane().RowDense(1));
  ExpectPaneMirrorsCluster(ws);
  ws.ToggleCol(2);  // and comes back: the row's slots are rebuilt
  ASSERT_TRUE(ws.PaneValid());
  EXPECT_FALSE(ws.EnsurePane().RowDense(1));
  ExpectPaneMirrorsCluster(ws);
  ws.ToggleCol(4);  // a specified column appended past every slot
  ExpectPaneMirrorsCluster(ws);
}

TEST(ClusterWorkspaceTest, AllMissingRowHasAnEmptyRun) {
  DataMatrix m = HoleyMatrix();
  ClusterWorkspace ws(m, Cluster::FromMembers(5, 5, {0, 3}, {1, 2}));
  ws.EnsurePane();
  ws.ToggleRow(2);  // spliced in with an empty run
  ASSERT_TRUE(ws.PaneValid());
  const PackedPane& pane = ws.EnsurePane();
  EXPECT_EQ(pane.RunLength(1), 0u);  // row 2 sits between rows 0 and 3
  ExpectPaneMirrorsCluster(ws);
  for (size_t j : {0u, 1u, 2u, 4u}) {
    ws.ToggleCol(j);
    ExpectPaneMirrorsCluster(ws);
  }
  ResidueEngine engine;
  ws.InvalidateResidue();
  EXPECT_NEAR(engine.Residue(ws),
              ClusterResidueNaive(m, ws.cluster(), ResidueNorm::kMeanAbsolute),
              1e-12);
}

TEST(ClusterWorkspaceTest, DeclinedPatchThenCompactingRebuild) {
  SyntheticConfig config;
  config.rows = 40;
  config.cols = 30;
  config.num_clusters = 2;
  config.missing_fraction = 0.3;
  config.seed = 37;
  SyntheticDataset data = GenerateSynthetic(config);
  bool was_enabled = obs::MetricsRegistry::Enabled();
  obs::MetricsRegistry::SetEnabled(true);
  obs::Counter* compactions =
      obs::MetricsRegistry::Global().GetCounter("floc.pane.compactions");
  // A 2-column pane has phys_stride 2 + 8 = 10: the ninth added column
  // finds no capacity, declines, and the next EnsurePane rebuilds.
  ClusterWorkspace ws(data.matrix,
                      Cluster::FromMembers(40, 30, {0, 1, 2, 3, 4, 5}, {0, 1}));
  ws.EnsurePane();
  uint64_t before = compactions->Value();
  size_t j = 2;
  while (compactions->Value() == before && j < 30) {
    ws.ToggleCol(j++);
    if (ws.PaneValid()) ExpectPaneMirrorsCluster(ws);
    if (HasFatalFailure()) break;
  }
  obs::MetricsRegistry::SetEnabled(was_enabled);
  ASSERT_GT(compactions->Value(), before);
  EXPECT_FALSE(ws.PaneValid());
  ExpectPaneMirrorsCluster(ws);  // the compacting rebuild
  EXPECT_TRUE(ws.PaneValid());
  // Patching resumes on the rebuilt pane.
  ws.ToggleCol(2);
  EXPECT_TRUE(ws.PaneValid());
  ExpectPaneMirrorsCluster(ws);
}

// A run's slots are uint16, so a pane spans at most kMaxPaneCols
// columns; a wider cluster is refused when its pane is built.
TEST(ClusterWorkspaceTest, PaneWiderThanItsSlotsReachIsRefused) {
  size_t cols = kMaxPaneCols + 1;
  DataMatrix m(1, cols, 1.0);
  std::vector<size_t> all(cols);
  for (size_t j = 0; j < cols; ++j) all[j] = j;
  ClusterWorkspace ws(m, Cluster::FromMembers(1, cols, {0}, all));
  EXPECT_DEATH(ws.EnsurePane(), "too wide");
}

}  // namespace
}  // namespace deltaclus
