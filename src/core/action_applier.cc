#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>

#include "src/core/audit.h"
#include "src/core/floc_phases.h"
#include "src/util/mutex.h"

namespace deltaclus {

namespace {

// Entities past the coordinator's current one that the helpers refresh
// (besides that one). Nearer entities are refreshed first; a slot
// refreshed further ahead is more likely to go stale again (its cluster
// toggled) before the coordinator reaches it.
constexpr size_t kLookahead = 8;

// A helper that found nothing stale ahead looks again this many times
// (a look is a pass over the lookahead, well under a microsecond), then
// sleeps kIdleSleep before each further look until it finds work.
constexpr size_t kIdleLooks = 64;
constexpr std::chrono::microseconds kIdleSleep{20};

// The shared state of one pipelined apply sweep (see ActionApplier): the
// coordinator's published position, a helper claim per position of
// `order`, and per cluster a reader/writer guard plus a lock-free hint of
// its live epoch.
class ApplyPipeline {
 public:
  ApplyPipeline(const std::vector<Action>& actions,
                const std::vector<size_t>& order,
                const std::vector<ClusterWorkspace>& views, GainMemo& memo,
                size_t helpers)
      : actions_(actions),
        order_(order),
        views_(views),
        memo_(memo),
        claims_(order.size()),
        guards_(views.size()),
        live_(views.size()),
        tallies_(helpers) {
    for (size_t c = 0; c < views.size(); ++c) {
      live_[c].store(views[c].epoch(), std::memory_order_relaxed);
    }
  }

  // Coordinator: publishes `pos` as the position it re-decides next.
  void Enter(size_t pos) { cursor_.store(pos, std::memory_order_relaxed); }

  // Coordinator: runs `mutate` (a membership toggle of cluster `c` that
  // also refreshes its pane and residue cache) under c's exclusive guard,
  // so no helper scans c while it changes and none ever fills a cache.
  template <typename Fn>
  void Mutate(size_t c, Fn&& mutate) {
    // Helpers stop taking the guard; at most the scans already under way
    // are waited for.
    live_[c].store(kBusy, std::memory_order_relaxed);
    guards_[c].Lock();
    mutate();
    guards_[c].Unlock();
    live_[c].store(views_[c].epoch(), std::memory_order_relaxed);
  }

  // Helper body (ThreadPool::RunBeside): refreshes the nearest entity
  // from the coordinator's on that has a stale slot, over and over, until
  // `done` fires; backs off while nothing ahead is stale.
  void Help(size_t helper, const StopToken& done) {
    // Tallied on the helper's stack and stored once, as the
    // determination shards do.
    SweepTally tally;
    ResidueEngine engine(ResidueNorm::kMeanAbsolute, &tally.scan);
    size_t idle = 0;
    while (!done.stop_requested()) {
      size_t cursor = cursor_.load(std::memory_order_relaxed);
      size_t end = std::min(order_.size(), cursor + 1 + kLookahead);
      bool worked = false;
      for (size_t pos = cursor; pos < end && !worked; ++pos) {
        worked = Refresh(pos, engine, tally);
      }
      if (worked) {
        idle = 0;
      } else if (++idle > kIdleLooks) {
        std::this_thread::sleep_for(kIdleSleep);
      }
    }
    tallies_[helper] = tally;
  }

  // After the join: the helpers' rescans, merged in helper order.
  SweepTally HelperTally() const {
    SweepTally total;
    for (const SweepTally& t : tallies_) total.Merge(t);
    return total;
  }

 private:
  // Epochs start at 1 (NextMembershipEpoch), so 0 can mark a cluster
  // the coordinator is mutating.
  static constexpr uint64_t kBusy = 0;

  // Helper: brings the stale memo slots of the entity at `pos` up to
  // their clusters' live epochs, skipping clusters being mutated, until
  // done or the coordinator has moved past `pos`. It walks the clusters
  // from the last one down, so on the entity the coordinator is
  // re-deciding (which walks them up) the two split its stale slots.
  // Returns whether it rescanned anything.
  bool Refresh(size_t pos, ResidueEngine& engine, SweepTally& tally) {
    auto& claim = claims_[pos];
    bool expected = false;
    if (claim.load(std::memory_order_relaxed) ||
        !claim.compare_exchange_strong(expected, true,
                                       std::memory_order_relaxed)) {
      return false;
    }
    const Action& action = actions_[order_[pos]];
    bool is_row = action.target == ActionTarget::kRow;
    bool rescanned = false;
    for (size_t c = views_.size(); c-- > 0;) {
      if (cursor_.load(std::memory_order_relaxed) > pos) break;
      uint64_t live = live_[c].load(std::memory_order_relaxed);
      GainMemo::Entry* slot = memo_.Slot(is_row, action.index, c);
      if (live == kBusy || slot->Stamp() == live) continue;
      dc::SharedMutex& guard = guards_[c];
      if (!guard.TryLockShared()) continue;
      // Under the guard the cluster cannot change: the slot is stamped
      // with the epoch its scan read.
      if (RefreshGainSlot(is_row, action.index, views_[c], slot, engine)) {
        ++tally.recomputed;
        rescanned = true;
      }
      guard.UnlockShared();
    }
    claim.store(false, std::memory_order_relaxed);
    return rescanned;
  }

  const std::vector<Action>& actions_;
  const std::vector<size_t>& order_;
  const std::vector<ClusterWorkspace>& views_;
  GainMemo& memo_;
  // DC_LOCK_FREE: the coordinator's position, a hint read relaxed. It
  // only steers which entities the helpers refresh and when they stop;
  // no data is published through it (the memo entries and the guards
  // do that), so a stale read costs at most a wasted scan.
  std::atomic<size_t> cursor_{0};
  // DC_LOCK_FREE: one claim per position of `order`, taken by at most
  // one helper at a time so two helpers do not scan the same entity.
  // Relaxed: a claim publishes nothing (the memo entries carry their own
  // release/acquire stamp), so a late-seen claim costs at most a
  // duplicate scan of identical bits.
  std::vector<std::atomic<bool>> claims_;
  // Shared by helper scans of cluster c, exclusive for its mutation.
  std::vector<dc::SharedMutex> guards_;
  // DC_LOCK_FREE: per cluster, the live epoch (kBusy while mutating),
  // read relaxed as a hint only: it lets a helper skip fresh slots and
  // clusters under mutation without touching the guard. A helper that
  // acts on a stale hint either skips a slot the coordinator then
  // rescans itself, or takes the guard and finds the slot fresh; the
  // epoch it stamps is always read under the guard.
  std::vector<std::atomic<uint64_t>> live_;
  // One per helper, each written only by its helper and read after the
  // join (published by the pool's join-side mutex acquire).
  std::vector<SweepTally> tallies_;
};

}  // namespace

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

  // Set on the pipelined path (see the class comment); null runs the
  // plain serial loop.
  ApplyPipeline* pipeline = nullptr;

  auto sweep = [&] {
    for (size_t pos = 0; pos < order.size(); ++pos) {
      if (pipeline != nullptr) pipeline->Enter(pos);
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
        bool allowed = is_row ? tracker.RowToggleAllowed(views, action.cluster,
                                                         action.index)
                              : tracker.ColToggleAllowed(views, action.cluster,
                                                         action.index);
        if (!allowed) continue;
      }

      ClusterWorkspace& view = views[action.cluster];
      double residue = 0.0;
      auto toggle = [&] {
        if (is_row) {
          view.ToggleRow(action.index);
        } else {
          view.ToggleCol(action.index);
        }
        // Both caches are filled here, so that on the pipelined path
        // they are filled under the cluster's guard.
        view.EnsurePane();
        residue = engine.Residue(view);
      };
      if (pipeline != nullptr) {
        pipeline->Mutate(action.cluster, toggle);
      } else {
        toggle();
      }
      if (is_row) {
        tracker.OnRowToggled(views, action.cluster, action.index);
      } else {
        tracker.OnColToggled(views, action.cluster, action.index);
      }
      if (config.audit) {
        AuditClusterWorkspace(view, config.constraints,
                              ResidueNorm::kMeanAbsolute,
                              kDefaultAuditTolerance, "move_phase",
                              audit_occupancy_);
      }
      applied.push_back({action.target, action.index, action.cluster});

      double new_score = ObjectiveScore(residue, view.stats().Volume(),
                                        config.target_residue);
      score_sum += new_score - scores[action.cluster];
      scores[action.cluster] = new_score;

      selector.Observe(score_sum / k, applied.size());
    }
  };

  if (config.fresh_gains_at_apply && memo_ != nullptr && pool_ != nullptr &&
      pool_->threads() > 1) {
    // Helpers scan panes concurrently, so every pane is fresh before they
    // start; afterwards only Mutate changes one, under its guard.
    for (const ClusterWorkspace& ws : views) ws.EnsurePane();
    ApplyPipeline pipelined(actions, order, views, *memo_,
                            static_cast<size_t>(pool_->threads() - 1));
    pipeline = &pipelined;
    pool_->RunBeside(
        [&pipelined](size_t helper, const StopToken& done) {
          pipelined.Help(helper, done);
        },
        sweep);
    tally.Merge(pipelined.HelperTally());
  } else {
    sweep();
  }
  tally.Flush();
  return applied;
}

}  // namespace deltaclus
