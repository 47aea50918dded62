// Unit tests for the FLOC phase components (src/core/floc_phases.h)
// in isolation -- Floc::Run wires them together, floc_test.cc and
// floc_determinism_test.cc cover the composition.
//
// The headline checks are serial/pooled agreements: GainDeterminer's
// inline path below the serial cutoff and its pooled path above it
// iterate the same shard boundaries, so the determined actions and the
// blocked-toggle tallies must be bit-identical either way; and
// ActionApplier's pipelined sweep, whose pool helpers refresh the gain
// memo ahead of the serial commit loop, must leave every sweep exactly
// as the memo-less serial reference performs it, whatever the schedule.
#include "src/core/floc_phases.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/constraints.h"
#include "src/core/data_matrix.h"
#include "src/core/floc.h"
#include "src/core/gain_memo.h"
#include "src/core/seeding.h"
#include "src/data/synthetic.h"
#include "src/engine/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/util/rng.h"

namespace deltaclus {
namespace {

// A planted matrix plus a clustering state (views / scores / tracker)
// shaped like the middle of a FLOC run.
struct Fixture {
  Fixture(size_t rows, size_t cols, uint64_t seed,
          double missing_fraction = 0.0) {
    SyntheticConfig config;
    config.rows = rows;
    config.cols = cols;
    config.num_clusters = 3;
    config.volume_mean = rows;
    config.col_fraction = 0.3;
    config.noise_stddev = 0.5;
    config.missing_fraction = missing_fraction;
    config.seed = seed;
    data = GenerateSynthetic(config);

    Constraints constraints;
    constraints.alpha = 0.5;
    constraints.max_overlap = 0.6;
    tracker = std::make_unique<ConstraintTracker>(data.matrix, constraints);

    // Three overlapping rectangular seeds.
    Rng rng(seed + 1);
    for (size_t c = 0; c < 3; ++c) {
      Cluster cluster(data.matrix.rows(), data.matrix.cols());
      for (size_t i = c * 5; i < c * 5 + rows / 2 && i < rows; ++i) {
        cluster.AddRow(i);
      }
      for (size_t j = c * 2; j < c * 2 + cols / 2 && j < cols; ++j) {
        cluster.AddCol(j);
      }
      views.emplace_back(data.matrix, std::move(cluster));
    }
    tracker->Rebuild(views);

    ResidueEngine engine(ResidueNorm::kMeanAbsolute);
    for (const ClusterWorkspace& ws : views) {
      scores.push_back(ObjectiveScore(engine.Residue(ws),
                                      ws.stats().Volume(), kTarget));
    }
  }

  static constexpr double kTarget = 1.0;

  SyntheticDataset data;
  std::vector<ClusterWorkspace> views;
  std::vector<double> scores;
  std::unique_ptr<ConstraintTracker> tracker;
};

void ExpectSameActions(const std::vector<Action>& a,
                       const std::vector<Action>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t].target, b[t].target) << "action " << t;
    EXPECT_EQ(a[t].index, b[t].index) << "action " << t;
    EXPECT_EQ(a[t].cluster, b[t].cluster) << "action " << t;
    EXPECT_EQ(a[t].gain, b[t].gain) << "action " << t;  // bit-identical
  }
}

TEST(GainDeterminerTest, SerialAndPooledAgreeAboveCutoff) {
  // 120 rows + 30 cols = 150 work items, above the default cutoff of 64:
  // the pooled run fans out while the null-pool run stays inline.
  Fixture fx(120, 30, 41);
  GainDeterminer serial(Fixture::kTarget, /*pool=*/nullptr);
  std::vector<Action> base = serial.Determine(fx.data.matrix, fx.views,
                                              fx.scores, *fx.tracker,
                                              /*blocked=*/nullptr);
  ASSERT_EQ(base.size(), fx.data.matrix.rows() + fx.data.matrix.cols());

  for (int threads : {2, 3, 8}) {
    engine::ThreadPool pool(threads);
    GainDeterminer pooled(Fixture::kTarget, &pool);
    std::vector<Action> got = pooled.Determine(fx.data.matrix, fx.views,
                                               fx.scores, *fx.tracker,
                                               /*blocked=*/nullptr);
    ExpectSameActions(base, got);
  }
}

TEST(GainDeterminerTest, SerialAndPooledAgreeBelowCutoff) {
  // 30 rows + 10 cols = 40 work items, below kSerialCutoff: the
  // determiner must stay inline even with a live pool. Forcing the pooled
  // path with serial_cutoff=0 must still give the same actions.
  Fixture fx(30, 10, 43);
  ASSERT_LT(fx.data.matrix.rows() + fx.data.matrix.cols(),
            engine::kSerialCutoff);

  GainDeterminer serial(Fixture::kTarget, /*pool=*/nullptr);
  std::vector<Action> base = serial.Determine(fx.data.matrix, fx.views,
                                              fx.scores, *fx.tracker,
                                              nullptr);

  engine::ThreadPool pool(4);
  GainDeterminer defaulted(Fixture::kTarget, &pool);
  ExpectSameActions(base, defaulted.Determine(fx.data.matrix, fx.views,
                                              fx.scores, *fx.tracker,
                                              nullptr));

  GainDeterminer forced(Fixture::kTarget, &pool, /*serial_cutoff=*/0);
  ExpectSameActions(base, forced.Determine(fx.data.matrix, fx.views,
                                           fx.scores, *fx.tracker, nullptr));
}

TEST(GainDeterminerTest, BlockCountsIdenticalSerialAndPooled) {
  // The per-shard blocked-toggle tallies are merged in shard order, so
  // the telemetry counts match the serial scan exactly.
  Fixture fx(120, 30, 47);
  GainDeterminer serial(Fixture::kTarget, nullptr);
  obs::BlockCounts serial_blocked;
  serial.Determine(fx.data.matrix, fx.views, fx.scores, *fx.tracker,
                   &serial_blocked);
  EXPECT_GT(serial_blocked.Total(), 0u);  // alpha + overlap bite here

  engine::ThreadPool pool(8);
  GainDeterminer pooled(Fixture::kTarget, &pool);
  obs::BlockCounts pooled_blocked;
  pooled.Determine(fx.data.matrix, fx.views, fx.scores, *fx.tracker,
                   &pooled_blocked);
  EXPECT_EQ(serial_blocked.counts, pooled_blocked.counts);
}

// The gain-evaluation counters, read from the global registry.
struct GainCounters {
  uint64_t scanned = 0;
  uint64_t dense = 0;
  uint64_t recomputed = 0;
  uint64_t served = 0;

  static GainCounters Read() {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    GainCounters out;
    out.scanned =
        registry.GetCounter("floc.gain_eval_entries_scanned")->Value();
    out.dense = registry.GetCounter("floc.gain_eval_entries_dense")->Value();
    out.recomputed =
        registry.GetCounter("floc.gain_evals_recomputed")->Value();
    out.served =
        registry.GetCounter("floc.gain_evals_served_from_cache")->Value();
    return out;
  }
  GainCounters Since(const GainCounters& before) const {
    return {scanned - before.scanned, dense - before.dense,
            recomputed - before.recomputed, served - before.served};
  }
};

// A 120 x 30 Fixture whose overlap bound (0.8) sits just above its seeds'
// overlaps: most toggles are admitted, those that raise an overlap past
// it are blocked.
Fixture LooseFixture(uint64_t seed, double missing_fraction) {
  Fixture fx(120, 30, seed, missing_fraction);
  Constraints constraints;
  constraints.alpha = 0.5;
  constraints.max_overlap = 0.8;
  fx.tracker =
      std::make_unique<ConstraintTracker>(fx.data.matrix, constraints);
  fx.tracker->Rebuild(fx.views);
  return fx;
}

// The determination sweep scans cluster-major within each shard and
// batches row rescans four to a pane pass; the entity-major reference is
// one BestActionFor per entity, every rescan a single-candidate one.
// Both must give the same actions (gains bit for bit), block counts and
// gain counters, at any pool size, with and without the memo (a second
// sweep after toggling one cluster serves the other clusters from it),
// on dense and holey data.
TEST(GainDeterminerTest, BatchedSweepMatchesEntityMajorReference) {
  bool was_enabled = obs::MetricsRegistry::Enabled();
  obs::MetricsRegistry::SetEnabled(true);
  for (double missing : {0.0, 0.3}) {
    for (bool with_memo : {false, true}) {
      for (int threads : {1, 2, 4}) {
        Fixture fx = LooseFixture(53, missing);
        engine::ThreadPool pool(threads);
        GainMemo memo;
        GainMemo reference_memo;
        memo.Configure(fx.data.matrix.rows(), fx.data.matrix.cols(),
                       fx.views.size());
        reference_memo.Configure(fx.data.matrix.rows(),
                                 fx.data.matrix.cols(), fx.views.size());
        GainDeterminer determiner(Fixture::kTarget, &pool,
                                  /*serial_cutoff=*/0,
                                  with_memo ? &memo : nullptr);
        for (int sweep = 0; sweep < 2; ++sweep) {
          SCOPED_TRACE(testing::Message()
                       << "missing=" << missing << " memo=" << with_memo
                       << " threads=" << threads << " sweep=" << sweep);
          if (sweep == 1) {
            // Move cluster 0 so the second sweep mixes hits and misses.
            fx.views[0].ToggleRow(100);
            fx.tracker->OnRowToggled(fx.views, 0, 100);
            ResidueEngine engine(ResidueNorm::kMeanAbsolute);
            fx.scores[0] = ObjectiveScore(engine.Residue(fx.views[0]),
                                          fx.views[0].stats().Volume(),
                                          Fixture::kTarget);
          }
          SweepTally tally;
          obs::BlockCounts reference_blocked;
          GainContext ctx{&fx.views,
                          &fx.scores,
                          fx.tracker.get(),
                          Fixture::kTarget,
                          &reference_blocked,
                          with_memo ? &reference_memo : nullptr,
                          /*audit_memo=*/false,
                          &tally};
          ResidueEngine engine(ResidueNorm::kMeanAbsolute, &tally.scan);
          std::vector<Action> reference;
          for (size_t i = 0; i < fx.data.matrix.rows(); ++i) {
            reference.push_back(BestActionFor(true, i, ctx, engine));
          }
          for (size_t j = 0; j < fx.data.matrix.cols(); ++j) {
            reference.push_back(BestActionFor(false, j, ctx, engine));
          }

          obs::BlockCounts blocked;
          GainCounters before = GainCounters::Read();
          std::vector<Action> got = determiner.Determine(
              fx.data.matrix, fx.views, fx.scores, *fx.tracker, &blocked);
          GainCounters counted = GainCounters::Read().Since(before);
          ExpectSameActions(reference, got);
          EXPECT_EQ(reference_blocked.counts, blocked.counts);
          EXPECT_GT(blocked.Total(), 0u);
          EXPECT_GT(tally.recomputed + tally.served, blocked.Total());
          EXPECT_EQ(tally.scan.entries, counted.scanned);
          EXPECT_EQ(tally.scan.dense_entries, counted.dense);
          EXPECT_EQ(tally.recomputed, counted.recomputed);
          EXPECT_EQ(tally.served, counted.served);
          if (with_memo && sweep == 1) {
            EXPECT_GT(counted.served, 0u);
          }
        }
      }
    }
  }
  obs::MetricsRegistry::SetEnabled(was_enabled);
}

// RefineSweep's entity-by-entity reference: every candidate of a cluster
// ranked by its own ToggleGain, then applied best-first, each
// re-validated, as the sweep is specified (floc_phases.h).
size_t ReferenceRefineSweep(const FlocConfig& config, size_t num_rows,
                            size_t total,
                            std::vector<ClusterWorkspace>& views,
                            std::vector<double>& scores,
                            ConstraintTracker& tracker, GainMemo* memo) {
  SweepTally tally;
  ResidueEngine engine(ResidueNorm::kMeanAbsolute, &tally.scan);
  GainContext ctx{&views,   &scores,     &tracker,    config.target_residue,
                  nullptr,  memo,        false,       &tally};
  struct Candidate {
    double gain;
    bool is_row;
    size_t index;
  };
  size_t applied = 0;
  for (size_t c = 0; c < views.size(); ++c) {
    std::vector<Candidate> candidates;
    for (size_t t = 0; t < total; ++t) {
      bool is_row = t < num_rows;
      size_t index = is_row ? t : t - num_rows;
      std::optional<double> gain = ToggleGain(is_row, index, c, ctx, engine);
      if (gain && *gain > kMinImprovement) {
        candidates.push_back({*gain, is_row, index});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.gain > b.gain;
              });
    for (const Candidate& cand : candidates) {
      std::optional<double> gain =
          ToggleGain(cand.is_row, cand.index, c, ctx, engine);
      if (!gain || *gain <= kMinImprovement) continue;
      if (cand.is_row) {
        views[c].ToggleRow(cand.index);
        tracker.OnRowToggled(views, c, cand.index);
      } else {
        views[c].ToggleCol(cand.index);
        tracker.OnColToggled(views, c, cand.index);
      }
      scores[c] = ObjectiveScore(engine.Residue(views[c]),
                                 views[c].stats().Volume(),
                                 config.target_residue);
      ++applied;
    }
  }
  return applied;
}

// RefineSweep ranks with batched row rescans; the toggles it applies,
// and the clusters and scores it leaves, must be the reference's, with
// and without the memo (and under audit, which checks every batched
// scan), on dense and holey data.
TEST(RefineSweepTest, BatchedRankingMatchesPerEntityReference) {
  for (double missing : {0.0, 0.3}) {
    for (bool with_memo : {false, true}) {
      for (bool audit : {false, true}) {
        SCOPED_TRACE(testing::Message() << "missing=" << missing
                                        << " memo=" << with_memo
                                        << " audit=" << audit);
        Fixture fx = LooseFixture(59, missing);
        FlocConfig config;
        config.target_residue = Fixture::kTarget;
        config.constraints = fx.tracker->constraints();
        config.audit = audit;
        const DataMatrix& m = fx.data.matrix;
        std::vector<ClusterWorkspace> views = fx.views;
        std::vector<double> scores = fx.scores;
        ConstraintTracker tracker(m, config.constraints);
        tracker.Rebuild(views);
        GainMemo memo;
        GainMemo reference_memo;
        memo.Configure(m.rows(), m.cols(), views.size());
        reference_memo.Configure(m.rows(), m.cols(), views.size());
        for (int sweep = 0; sweep < 2; ++sweep) {
          size_t want = ReferenceRefineSweep(
              config, m.rows(), m.rows() + m.cols(), fx.views, fx.scores,
              *fx.tracker, with_memo ? &reference_memo : nullptr);
          size_t got = RefineSweep(config, m, views, scores, tracker,
                                   with_memo ? &memo : nullptr,
                                   /*audit_occupancy=*/false);
          EXPECT_EQ(want, got) << "sweep " << sweep;
          if (sweep == 0) {
            EXPECT_GT(got, 0u);
          }
          ASSERT_EQ(fx.views.size(), views.size());
          for (size_t c = 0; c < views.size(); ++c) {
            EXPECT_TRUE(fx.views[c].cluster() == views[c].cluster())
                << "sweep " << sweep << " cluster " << c;
            EXPECT_EQ(fx.scores[c], scores[c])
                << "sweep " << sweep << " cluster " << c;
          }
        }
      }
    }
  }
}

// Everything one apply sweep produces: the journal, the resulting
// clusters and scores, and the selector's choice. `memo_hits` counts the
// sweep's lookups served from the memo (0 while metrics are disabled).
struct SweepOutcome {
  std::vector<AppliedAction> journal;
  std::vector<Cluster> clusters;
  std::vector<double> scores;
  double score_sum = 0.0;
  bool has_best = false;
  size_t best_prefix = 0;
  double best_average = 0.0;
  uint64_t memo_hits = 0;
};

// 120 x 24 planted matrix, mined with k = 10 random seeds.
SyntheticDataset ApplyData() {
  SyntheticConfig config;
  config.rows = 120;
  config.cols = 24;
  config.num_clusters = 5;
  config.volume_mean = 80;
  config.col_fraction = 0.25;
  config.noise_stddev = 0.5;
  config.missing_fraction = 0.1;
  config.seed = 23;
  return GenerateSynthetic(config);
}

FlocConfig ApplyConfig(bool perform_negative_actions, bool audit) {
  FlocConfig config;
  config.num_clusters = 10;
  config.target_residue = 1.0;
  config.constraints.alpha = 0.5;
  config.constraints.max_overlap = 0.8;
  config.perform_negative_actions = perform_negative_actions;
  // Skipped negatives go through annealing, which draws from the rng:
  // its stream must be consumed identically too.
  config.annealing_temperature = perform_negative_actions ? 0.0 : 0.5;
  config.audit = audit;
  config.rng_seed = 11;
  return config;
}

// Runs `sweeps` determine -> order -> apply sweeps over one evolving
// clustering, the way MiningSession::Step does (minus the rewind to the
// best prefix, which would only shorten the evolution), and returns
// each sweep's outcome. `memo` and `pool` are shared by the determiner
// and the applier; null for both is the serial memo-less reference.
std::vector<SweepOutcome> RunApplySweeps(const DataMatrix& matrix,
                                         const FlocConfig& config,
                                         GainMemo* memo,
                                         engine::ThreadPool* pool,
                                         int sweeps) {
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
  tracker.Rebuild(views);
  ResidueEngine engine;
  std::vector<double> scores;
  double score_sum = 0.0;
  for (const ClusterWorkspace& ws : views) {
    scores.push_back(ObjectiveScore(engine.Residue(ws), ws.stats().Volume(),
                                    config.target_residue));
    score_sum += scores.back();
  }

  GainDeterminer determiner(config.target_residue, pool,
                            engine::kSerialCutoff, memo, config.audit);
  ActionApplier applier(config, memo, pool);
  obs::Counter* served = obs::MetricsRegistry::Global().GetCounter(
      "floc.gain_evals_served_from_cache");
  std::vector<SweepOutcome> outcomes;
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    std::vector<Action> actions = determiner.Determine(
        matrix, views, scores, tracker, /*blocked=*/nullptr);
    std::vector<double> gains;
    for (const Action& a : actions) gains.push_back(a.gain);
    std::vector<size_t> order = MakeActionOrder(config.ordering, gains, rng);
    BestPrefixSelector selector(score_sum / views.size());
    SweepOutcome out;
    uint64_t served_before = served->Value();
    out.journal = applier.Apply(actions, order, static_cast<size_t>(sweep),
                                views, scores, score_sum, tracker, rng,
                                selector);
    out.memo_hits = served->Value() - served_before;
    for (const ClusterWorkspace& ws : views) out.clusters.push_back(ws.cluster());
    out.scores = scores;
    out.score_sum = score_sum;
    out.has_best = selector.has_best();
    out.best_prefix = selector.best_prefix();
    out.best_average = selector.best_average();
    outcomes.push_back(std::move(out));
  }
  return outcomes;
}

void ExpectSameOutcomes(const std::vector<SweepOutcome>& a,
                        const std::vector<SweepOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].journal.size(), b[s].journal.size()) << "sweep " << s;
    for (size_t t = 0; t < a[s].journal.size(); ++t) {
      EXPECT_EQ(a[s].journal[t].target, b[s].journal[t].target)
          << "sweep " << s << " toggle " << t;
      EXPECT_EQ(a[s].journal[t].index, b[s].journal[t].index)
          << "sweep " << s << " toggle " << t;
      EXPECT_EQ(a[s].journal[t].cluster, b[s].journal[t].cluster)
          << "sweep " << s << " toggle " << t;
    }
    ASSERT_EQ(a[s].clusters.size(), b[s].clusters.size());
    for (size_t c = 0; c < a[s].clusters.size(); ++c) {
      EXPECT_EQ(a[s].clusters[c].row_ids(), b[s].clusters[c].row_ids())
          << "sweep " << s << " cluster " << c;
      EXPECT_EQ(a[s].clusters[c].col_ids(), b[s].clusters[c].col_ids())
          << "sweep " << s << " cluster " << c;
    }
    // Bit-identical, not merely close.
    EXPECT_EQ(a[s].scores, b[s].scores) << "sweep " << s;
    EXPECT_EQ(a[s].score_sum, b[s].score_sum) << "sweep " << s;
    EXPECT_EQ(a[s].has_best, b[s].has_best) << "sweep " << s;
    EXPECT_EQ(a[s].best_prefix, b[s].best_prefix) << "sweep " << s;
    EXPECT_EQ(a[s].best_average, b[s].best_average) << "sweep " << s;
  }
}

TEST(ActionApplierTest, PipelinedApplyMatchesMemoLessReferenceAtAnyPoolSize) {
  // How far the helpers get ahead of the coordinator depends on the
  // schedule, so each pool size runs the sweeps several times over: each
  // repetition is another interleaving that must land on the reference.
  constexpr int kSweeps = 8;
  constexpr int kRepeats = 3;
  SyntheticDataset data = ApplyData();
  for (bool negatives : {true, false}) {
    for (bool audit : {false, true}) {
      SCOPED_TRACE(testing::Message() << "negatives=" << negatives
                                      << " audit=" << audit);
      FlocConfig config = ApplyConfig(negatives, audit);
      std::vector<SweepOutcome> reference = RunApplySweeps(
          data.matrix, config, /*memo=*/nullptr, /*pool=*/nullptr, kSweeps);
      ASSERT_FALSE(reference.front().journal.empty());
      ASSERT_FALSE(reference.back().journal.empty());
      for (int threads : {1, 2, 3, 4, 8}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        engine::ThreadPool pool(threads);
        for (int repeat = 0; repeat < kRepeats; ++repeat) {
          SCOPED_TRACE(testing::Message() << "repeat=" << repeat);
          GainMemo memo;
          ExpectSameOutcomes(reference, RunApplySweeps(data.matrix, config,
                                                       &memo, &pool, kSweeps));
        }
      }
    }
  }
}

TEST(ActionApplierTest, PipelinedHelpersTakeRescansOffTheCoordinator) {
  // Every after-toggle evaluation the sweep needs is either a memo hit
  // on the coordinator or a rescan, on the coordinator or on a helper.
  // Serially the coordinator rescans nearly every cluster of every
  // entity; pipelined, the helpers have made some of those scans ahead
  // of it, so it hits more -- how many more is up to the schedule, so
  // only "more" is asserted. No constraints, so every re-decision looks
  // up all k clusters.
  SyntheticDataset data = ApplyData();
  FlocConfig config = ApplyConfig(/*perform_negative_actions=*/false,
                                  /*audit=*/false);
  config.constraints = Constraints{};
  config.annealing_temperature = 0.0;  // greedy: positive gains only

  bool was_enabled = obs::MetricsRegistry::Enabled();
  obs::MetricsRegistry::SetEnabled(true);
  auto second_sweep_hits = [&](int threads) {
    engine::ThreadPool pool(threads);
    GainMemo memo;
    std::vector<SweepOutcome> sweeps =
        RunApplySweeps(data.matrix, config, &memo, &pool, 2);
    EXPECT_FALSE(sweeps[1].journal.empty());
    return sweeps[1].memo_hits;
  };
  uint64_t serial = second_sweep_hits(1);
  uint64_t pipelined = 0;
  // One try can in principle find the helpers never scheduled while the
  // coordinator ran; several cannot, on any host that runs them at all.
  for (int attempt = 0; attempt < 5 && pipelined <= serial; ++attempt) {
    pipelined = second_sweep_hits(4);
  }
  obs::MetricsRegistry::SetEnabled(was_enabled);
  EXPECT_GT(pipelined, serial);
}

TEST(BestPrefixSelectorTest, TracksBestObservedPrefix) {
  BestPrefixSelector selector(/*incumbent_average=*/2.0);
  EXPECT_FALSE(selector.has_best());
  EXPECT_DOUBLE_EQ(selector.best_average(), 2.0);

  // The first observation always becomes the best, even when worse than
  // the incumbent -- "did the iteration improve" is Floc's separate
  // judgement downstream.
  selector.Observe(2.5, 1);
  EXPECT_TRUE(selector.has_best());
  EXPECT_DOUBLE_EQ(selector.best_average(), 2.5);
  EXPECT_EQ(selector.best_prefix(), 1u);

  selector.Observe(1.5, 2);
  EXPECT_DOUBLE_EQ(selector.best_average(), 1.5);
  EXPECT_EQ(selector.best_prefix(), 2u);

  selector.Observe(1.5, 3);  // tie: earliest prefix kept
  EXPECT_EQ(selector.best_prefix(), 2u);

  selector.Observe(1.0, 4);
  EXPECT_DOUBLE_EQ(selector.best_average(), 1.0);
  EXPECT_EQ(selector.best_prefix(), 4u);
}

TEST(BestPrefixSelectorTest, NothingObservedReportsIncumbent) {
  // A sweep that applies zero actions leaves the selector untouched; the
  // incumbent average flows back out and best_prefix stays 0.
  BestPrefixSelector selector(1.0);
  EXPECT_FALSE(selector.has_best());
  EXPECT_DOUBLE_EQ(selector.best_average(), 1.0);
  EXPECT_EQ(selector.best_prefix(), 0u);
}

TEST(ObjectiveScoreTest, PaperModeIsPlainResidue) {
  EXPECT_DOUBLE_EQ(ObjectiveScore(3.25, 1000, /*target_residue=*/0.0), 3.25);
}

TEST(ObjectiveScoreTest, VolumeSeekingRewardsVolume) {
  double small = ObjectiveScore(1.0, 10, 1.0);
  double large = ObjectiveScore(1.0, 1000, 1.0);
  EXPECT_LT(large, small);  // lower objective = better
  // Empty cluster: volume clamps to 1, no -inf from log(0).
  EXPECT_DOUBLE_EQ(ObjectiveScore(0.0, 0, 1.0), 0.0);
}

}  // namespace
}  // namespace deltaclus
