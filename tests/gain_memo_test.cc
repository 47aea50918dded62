// Tests for the epoch-stamped gain memo (src/core/gain_memo.h) and its
// integration into FLOC: memoization must be a pure optimization --
// GainDeterminer with a memo determines the same actions as the
// memo-less reference path, with measurably less scanning; whole runs
// stay identical at any thread count -- and audit mode must cross-check
// every served entry.
#include "src/core/gain_memo.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/core/cluster_workspace.h"
#include "src/core/constraints.h"
#include "src/core/floc.h"
#include "src/core/floc_phases.h"
#include "src/core/seeding.h"
#include "src/data/synthetic.h"
#include "src/engine/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"

namespace deltaclus {
namespace {

// The smallest Table 2 scaling point (100 x 20, k = 10): big enough
// that FLOC iterates and the memo sees hits from both the parallel
// determination sweep and the sequential apply-phase re-decisions.
SyntheticDataset Table2SmallData() {
  SyntheticConfig config;
  config.rows = 100;
  config.cols = 20;
  config.num_clusters = 5;
  config.volume_mean = 60;
  config.col_fraction = 0.25;
  config.noise_stddev = 0.5;
  config.seed = 19;
  return GenerateSynthetic(config);
}

FlocConfig Table2Config() {
  FlocConfig config;
  config.num_clusters = 10;
  config.target_residue = 1.0;
  config.refine_passes = 2;
  config.rng_seed = 7;
  return config;
}

void ExpectSameClusters(const FlocResult& a, const FlocResult& b) {
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (size_t c = 0; c < a.clusters.size(); ++c) {
    EXPECT_EQ(a.clusters[c].row_ids(), b.clusters[c].row_ids())
        << "cluster " << c;
    EXPECT_EQ(a.clusters[c].col_ids(), b.clusters[c].col_ids())
        << "cluster " << c;
  }
  EXPECT_EQ(a.residues, b.residues);
}

// Runs the determination sweep three times over one evolving
// clustering of Table2SmallData -- as seeded, after toggling a row of
// cluster 0, after toggling a column of cluster 1 -- and returns every
// sweep's actions. The clusters a toggle leaves alone keep their
// epochs, so a memo serves their gains on the later sweeps.
std::vector<std::vector<Action>> DetermineSweeps(const DataMatrix& matrix,
                                                 GainMemo* memo,
                                                 engine::ThreadPool* pool) {
  FlocConfig config = Table2Config();
  Rng rng(config.rng_seed);
  std::vector<ClusterWorkspace> views;
  for (Cluster& seed : GenerateSeeds(matrix, config.seeding,
                                     config.num_clusters, rng)) {
    views.emplace_back(matrix, std::move(seed));
  }
  if (memo != nullptr) {
    memo->Configure(matrix.rows(), matrix.cols(), views.size());
  }
  ConstraintTracker tracker(matrix, config.constraints);
  GainDeterminer determiner(config.target_residue, pool,
                            /*serial_cutoff=*/0, memo);
  ResidueEngine engine;

  std::vector<std::vector<Action>> sweeps;
  for (int sweep = 0; sweep < 3; ++sweep) {
    if (sweep == 1) views[0].ToggleRow(0);
    if (sweep == 2) views[1].ToggleCol(0);
    tracker.Rebuild(views);
    std::vector<double> scores;
    for (const ClusterWorkspace& ws : views) {
      scores.push_back(ObjectiveScore(engine.Residue(ws), ws.stats().Volume(),
                                      config.target_residue));
    }
    sweeps.push_back(determiner.Determine(matrix, views, scores, tracker,
                                          /*blocked=*/nullptr));
  }
  return sweeps;
}

void ExpectSameSweeps(const std::vector<std::vector<Action>>& a,
                      const std::vector<std::vector<Action>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].size(), b[s].size());
    for (size_t t = 0; t < a[s].size(); ++t) {
      EXPECT_EQ(a[s][t].cluster, b[s][t].cluster) << "sweep " << s << " " << t;
      // Bit-identical, not merely close.
      EXPECT_EQ(a[s][t].gain, b[s][t].gain) << "sweep " << s << " " << t;
    }
  }
}

TEST(GainMemoTest, SlotsAreEntityMajorAndZeroInitialized) {
  GainMemo memo;
  memo.Configure(/*rows=*/3, /*cols=*/2, /*clusters=*/4);
  EXPECT_EQ(memo.bytes(), 5 * 4 * sizeof(GainMemo::Entry));
  // Every slot starts at epoch 0, which can never match a live workspace
  // epoch (NextMembershipEpoch starts at 1).
  EXPECT_EQ(memo.Slot(true, 0, 0)->Stamp(), 0u);
  EXPECT_EQ(memo.Slot(false, 1, 3)->Stamp(), 0u);

  // Distinct (entity, cluster) pairs get distinct slots: stamping one
  // leaves the others untouched.
  memo.Slot(true, 2, 1)->Store(42, 1.5, 7);
  memo.Slot(false, 0, 1)->Store(43, 2.5, 8);  // col 0 = entity rows + 0
  EXPECT_EQ(memo.Slot(true, 2, 1)->Stamp(), 42u);
  EXPECT_EQ(memo.Slot(false, 0, 1)->Stamp(), 43u);
  EXPECT_EQ(memo.Slot(true, 2, 0)->Stamp(), 0u);
  EXPECT_EQ(memo.Slot(true, 0, 1)->Stamp(), 0u);

  // A lookup serves the payload only at the stamped epoch.
  double residue = 0.0;
  size_t volume = 0;
  EXPECT_FALSE(memo.Slot(true, 2, 1)->Lookup(41, &residue, &volume));
  ASSERT_TRUE(memo.Slot(true, 2, 1)->Lookup(42, &residue, &volume));
  EXPECT_EQ(residue, 1.5);
  EXPECT_EQ(volume, 7u);

  // Re-configuring clears every entry.
  memo.Configure(/*rows=*/3, /*cols=*/2, /*clusters=*/4);
  EXPECT_EQ(memo.Slot(true, 2, 1)->Stamp(), 0u);
}

TEST(GainMemoTest, WorkspaceEpochAdvancesOnEveryMutation) {
  DataMatrix m = DataMatrix::FromOptionalRows({
      {1.0, 2.0, 3.0},
      {2.0, 3.0, 4.0},
      {3.0, 4.0, 5.0},
  });
  ClusterWorkspace ws(m, Cluster::FromMembers(3, 3, {0, 1}, {0, 1}));
  uint64_t e0 = ws.epoch();
  EXPECT_GT(e0, 0u);

  ws.ToggleRow(2);
  uint64_t e1 = ws.epoch();
  EXPECT_GT(e1, e0);
  ws.ToggleRow(2);  // Toggling back still advances: stats bits may differ.
  uint64_t e2 = ws.epoch();
  EXPECT_GT(e2, e1);
  ws.ToggleCol(2);
  uint64_t e3 = ws.epoch();
  EXPECT_GT(e3, e2);
  ws.Reset(Cluster::FromMembers(3, 3, {0, 1}, {0, 1}));
  EXPECT_GT(ws.epoch(), e3);

  // Copies share the membership, hence the epoch; a mutation of either
  // side diverges them.
  ClusterWorkspace copy(ws);
  EXPECT_EQ(copy.epoch(), ws.epoch());
  copy.ToggleRow(0);
  EXPECT_NE(copy.epoch(), ws.epoch());

  // Epochs are process-unique: two independently-built workspaces never
  // share one.
  ClusterWorkspace other(m, Cluster::FromMembers(3, 3, {0, 1}, {0, 1}));
  EXPECT_NE(other.epoch(), ws.epoch());
}

TEST(GainMemoTest, MemoAndNoMemoDetermineIdenticalActions) {
  SyntheticDataset data = Table2SmallData();
  std::vector<std::vector<Action>> reference =
      DetermineSweeps(data.matrix, /*memo=*/nullptr, /*pool=*/nullptr);
  // Serial and sharded: parallel shards write disjoint memo ranges.
  engine::ThreadPool pool(4);
  for (engine::ThreadPool* p : {static_cast<engine::ThreadPool*>(nullptr),
                                &pool}) {
    GainMemo memo;
    ExpectSameSweeps(reference, DetermineSweeps(data.matrix, &memo, p));
  }
}

TEST(GainMemoTest, MemoizedRunIsThreadCountInvariant) {
  SyntheticDataset data = Table2SmallData();
  FlocConfig t1 = Table2Config();
  t1.threads = 1;
  // Force the parallel path even at this size so the sharded memo writes
  // are actually exercised.
  FlocConfig t4 = Table2Config();
  t4.threads = 4;
  ExpectSameClusters(Floc(t1).Run(data.matrix), Floc(t4).Run(data.matrix));
}

TEST(GainMemoTest, AuditModeCrossChecksServedEntries) {
  SyntheticDataset data = Table2SmallData();
  FlocConfig config = Table2Config();
  config.audit = true;  // DC_CHECKs cached == recomputed on every hit.
  FlocResult audited = Floc(config).Run(data.matrix);
  FlocConfig plain = Table2Config();
  ExpectSameClusters(audited, Floc(plain).Run(data.matrix));
}

// The metrics-regression guard from the perf work: with a memo, the
// same sweeps must (a) scan strictly fewer entries, (b) serve a
// non-trivial number of evaluations from the cache, and (c) determine
// bit-identical actions. Fixed dataset and seeds make the counter
// values deterministic.
TEST(GainMemoTest, MemoizationReducesEntriesScanned) {
  SyntheticDataset data = Table2SmallData();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  bool was_enabled = obs::MetricsRegistry::Enabled();
  obs::MetricsRegistry::SetEnabled(true);
  obs::Counter* scanned =
      registry.GetCounter("floc.gain_eval_entries_scanned");
  obs::Counter* served =
      registry.GetCounter("floc.gain_evals_served_from_cache");

  registry.ResetAll();
  std::vector<std::vector<Action>> without_memo =
      DetermineSweeps(data.matrix, /*memo=*/nullptr, /*pool=*/nullptr);
  uint64_t scanned_off = scanned->Value();
  uint64_t served_off = served->Value();

  GainMemo memo;
  registry.ResetAll();
  std::vector<std::vector<Action>> with_memo =
      DetermineSweeps(data.matrix, &memo, /*pool=*/nullptr);
  uint64_t scanned_on = scanned->Value();
  uint64_t served_on = served->Value();

  obs::MetricsRegistry::SetEnabled(was_enabled);

  EXPECT_EQ(served_off, 0u);
  EXPECT_GT(served_on, 0u);
  EXPECT_LT(scanned_on, scanned_off);
  ExpectSameSweeps(with_memo, without_memo);
}

// The sweep's evaluation counters are tallied per shard and published
// once per sweep. Every evaluation must still be counted exactly once:
// the totals do not depend on the pool size, and the memo only moves an
// evaluation from floc.gain_evals_recomputed to
// floc.gain_evals_served_from_cache.
TEST(GainMemoTest, SweepCountersCountEveryEvaluationOnce) {
  SyntheticDataset data = Table2SmallData();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  bool was_enabled = obs::MetricsRegistry::Enabled();
  obs::MetricsRegistry::SetEnabled(true);
  const char* kNames[] = {"floc.gain_eval_entries_scanned",
                          "floc.gain_eval_entries_dense",
                          "floc.gain_evals_recomputed",
                          "floc.gain_evals_served_from_cache"};
  auto counts = [&](GainMemo* memo, engine::ThreadPool* pool) {
    registry.ResetAll();
    DetermineSweeps(data.matrix, memo, pool);
    std::vector<uint64_t> values;
    for (const char* name : kNames) {
      values.push_back(registry.GetCounter(name)->Value());
    }
    return values;
  };
  engine::ThreadPool pool(4);
  std::vector<uint64_t> off = counts(nullptr, nullptr);
  EXPECT_EQ(off, counts(nullptr, &pool));
  GainMemo memo_inline;
  std::vector<uint64_t> on = counts(&memo_inline, nullptr);
  GainMemo memo_pooled;
  EXPECT_EQ(on, counts(&memo_pooled, &pool));
  obs::MetricsRegistry::SetEnabled(was_enabled);

  EXPECT_GT(off[2], 0u);
  EXPECT_EQ(off[3], 0u);
  EXPECT_GT(on[3], 0u);
  EXPECT_EQ(off[2] + off[3], on[2] + on[3]);
}

}  // namespace
}  // namespace deltaclus
