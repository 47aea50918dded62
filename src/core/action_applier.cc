#include <algorithm>
#include <cmath>

#include "src/core/audit.h"
#include "src/core/floc_phases.h"

namespace deltaclus {

std::vector<AppliedAction> ActionApplier::Apply(
    const std::vector<Action>& actions, const std::vector<size_t>& order,
    size_t iteration, std::vector<ClusterWorkspace>& views,
    std::vector<double>& scores, double& score_sum, ConstraintTracker& tracker,
    Rng& rng, BestPrefixSelector& selector) const {
  const FlocConfig& config = *config_;
  size_t k = views.size();
  // The sweep's counters are tallied locally and published once at the
  // end, like the determination shards'.
  SweepTally tally;
  ResidueEngine engine(ResidueNorm::kMeanAbsolute, &tally.scan);
  GainContext ctx{&views, &scores, &tracker, config.target_residue,
                  /*blocked=*/nullptr, memo_, config.audit, &tally};

  std::vector<AppliedAction> applied;
  applied.reserve(actions.size());

  // Whether a non-positive-gain action should still be performed: always
  // in the paper's mode; with probability exp(gain / T) under annealing;
  // never in pure greedy mode.
  auto accept_negative = [&](double gain) {
    if (config.perform_negative_actions) return true;
    if (config.annealing_temperature <= 0) return false;
    double temperature = config.annealing_temperature *
                         std::pow(0.8, static_cast<double>(iteration));
    if (temperature <= 0) return false;
    return rng.Bernoulli(std::exp(gain / temperature));
  };

  // The windowed memo warm-up (see the class comment). Without a pool of
  // more than one thread, or with a window ParallelApply would run
  // inline, it would only move the same scans around.
  bool warm = config.fresh_gains_at_apply && memo_ != nullptr &&
              pool_ != nullptr && pool_->threads() > 1 &&
              kApplyWindow * k >= engine::kSerialCutoff;

  for (size_t pos = 0; pos < order.size(); ++pos) {
    if (warm && pos % kApplyWindow == 0) {
      WarmGainMemo(actions, order.data() + pos,
                   std::min(kApplyWindow, order.size() - pos), views, *memo_,
                   pool_);
    }
    Action action = actions[order[pos]];
    bool is_row = action.target == ActionTarget::kRow;
    if (config.fresh_gains_at_apply) {
      // Re-decide this row/column's best action against the current
      // state: earlier actions in the sweep have already moved it.
      action = BestActionFor(is_row, action.index, ctx, engine);
      if (action.blocked()) continue;
      if (action.gain <= 0 && !accept_negative(action.gain)) continue;
    } else {
      if (action.blocked()) continue;
      if (action.gain <= 0 && !accept_negative(action.gain)) continue;
      // Re-check constraints against the *current* state: earlier
      // actions in this iteration may have changed what is admissible.
      bool allowed =
          is_row ? tracker.RowToggleAllowed(views, action.cluster, action.index)
                 : tracker.ColToggleAllowed(views, action.cluster,
                                            action.index);
      if (!allowed) continue;
    }

    ClusterWorkspace& view = views[action.cluster];
    if (is_row) {
      view.ToggleRow(action.index);
      tracker.OnRowToggled(views, action.cluster, action.index);
    } else {
      view.ToggleCol(action.index);
      tracker.OnColToggled(views, action.cluster, action.index);
    }
    if (config.audit) {
      AuditClusterWorkspace(view, config.constraints,
                            ResidueNorm::kMeanAbsolute,
                            kDefaultAuditTolerance, "move_phase",
                            audit_occupancy_);
    }
    applied.push_back({action.target, action.index, action.cluster});

    double new_score = ObjectiveScore(engine.Residue(view),
                                      view.stats().Volume(),
                                      config.target_residue);
    score_sum += new_score - scores[action.cluster];
    scores[action.cluster] = new_score;

    selector.Observe(score_sum / k, applied.size());
  }
  tally.Flush();
  return applied;
}

}  // namespace deltaclus
