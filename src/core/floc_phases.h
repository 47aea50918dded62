// The phase components of FLOC Phase 2 (paper Section 4.1 / Figure 5)
// and of the refinement stage that follows it, each unit-testable and
// driven step by step by the mining session (src/session/):
//
//   GainDeterminer     step 1: the best action per row/column, fanned
//                      out over the thread pool in deterministic shards.
//   MakeActionOrder    step 2: the order the N + M actions are performed
//                      in (the three orderings of Section 5.2, ordering.h),
//                      from the determination gains.
//   ActionApplier      step 3: the sequential apply sweep -- re-deciding
//                      or re-validating each action against the current
//                      state, annealing negatives, toggling memberships.
//   BestPrefixSelector step 4: which intermediate clustering (prefix of
//                      the applied actions) the iteration keeps.
//   RefineSweep,       the refinement stage (FlocConfig::refine_passes):
//   ReanchorCluster    cluster-centric toggles and wholesale re-picks.
//
// Every toggle gain -- determination, the apply sweep's re-decisions and
// refinement's ranking and re-validation -- is one evaluation: the
// constraint check, the gain-memo lookup (or rescan) of the after-toggle
// residue, and the objective gain. ToggleGain makes it for one (entity,
// cluster) pair; ClusterToggleGains makes it for a range of entities
// against one cluster, rescanning the row misses and the column misses
// four to a pane pass (determination and refinement's ranking), with
// the same results.
//
// Determination is read-only over the clustering, so shards evaluate
// virtual toggles concurrently and write disjoint slots of the action
// vector. Apply commits sequentially (each toggle changes what the next
// action sees), exactly as the paper specifies. Its fresh re-decisions
// still use the pool: once per sweep the workers start beside the
// serial commit loop and keep the gain memo fresh for the next few
// entities ahead of it (see ActionApplier), so the loop mostly finds its
// after-toggle residues already scanned. Commit order and every
// decision are unchanged, so results are bit-identical however far
// ahead the helpers get.
//
// Audit mode (FlocConfig::audit): every phase that toggles a membership
// checks the toggled workspace with AuditClusterWorkspace right after,
// naming itself ("move_phase", "RefineSweep", "ReanchorCluster") in the
// failure message. Whether that audit re-validates alpha-occupancy is
// the caller's `audit_occupancy` flag: FLOC preserves occupancy but
// cannot establish it, so the session only sets it when the initial
// clustering complies.
#ifndef DELTACLUS_CORE_FLOC_PHASES_H_
#define DELTACLUS_CORE_FLOC_PHASES_H_

#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

#include "src/core/actions.h"
#include "src/core/cluster_workspace.h"
#include "src/core/constraints.h"
#include "src/core/data_matrix.h"
#include "src/core/floc.h"
#include "src/core/gain_memo.h"
#include "src/core/ordering.h"
#include "src/core/residue.h"
#include "src/engine/thread_pool.h"
#include "src/obs/telemetry.h"
#include "src/util/rng.h"

namespace deltaclus {

/// Per-cluster objective value: the residue when target_residue == 0
/// (the paper's literal objective), residue - target * ln(volume) in
/// volume-seeking mode (see FlocConfig::target_residue).
inline double ObjectiveScore(double residue, size_t volume,
                             double target_residue) {
  if (target_residue <= 0.0) return residue;
  return residue - target_residue *
                       std::log(static_cast<double>(std::max<size_t>(volume, 1)));
}

/// One shard's tally of a sweep's evaluation counters: the entries its
/// ResidueEngine scanned, and the after-toggle evaluations rescanned
/// (floc.gain_evals_recomputed) or served by the memo
/// (floc.gain_evals_served_from_cache). The parallel sweeps keep one per
/// shard and publish them once, merged in shard order, so the workers
/// share no counter cache line; the totals equal per-evaluation counting.
struct SweepTally {
  ScanTally scan;
  uint64_t recomputed = 0;
  uint64_t served = 0;

  void Merge(const SweepTally& other) {
    scan.Merge(other.scan);
    recomputed += other.recomputed;
    served += other.served;
  }
  /// Adds the tally to the global counters (no-op while metrics are
  /// disabled). Does not reset it.
  void Flush() const;
};

/// Read-only inputs of one best-action decision. Shared by the parallel
/// determination shards and the (sequential) fresh-gain re-decisions of
/// the apply sweep.
struct GainContext {
  const std::vector<ClusterWorkspace>* views;
  const std::vector<double>* scores;
  const ConstraintTracker* tracker;
  double target_residue;
  // When non-null, blocked candidate toggles are tallied by constraint
  // (telemetry collecting); null keeps the boolean constraint path.
  obs::BlockCounts* blocked = nullptr;
  // When non-null, after-toggle residue evaluations are served from /
  // stored into this epoch-stamped per-(entity, cluster) memo (see
  // src/core/gain_memo.h). Blocked pairs bypass the memo entirely;
  // gains are always re-derived from `scores`, never cached.
  GainMemo* memo = nullptr;
  // Audit mode: every memo hit, and every batched row rescan, is
  // recomputed by a single-candidate rescan and DC_CHECKed bit-equal
  // before being used.
  bool audit_memo = false;
  // Required: recomputed/served evaluations are tallied here for the
  // caller to publish (SweepTally::Flush).
  SweepTally* tally = nullptr;
};

/// The gain of Action(x, c): toggling row (is_row) or column `index` in
/// cluster `c`, as the drop in c's objective score. Nullopt when a
/// constraint blocks the toggle (tallied into ctx.blocked when set).
/// The after-toggle residue comes from the memo slot when its stamp
/// matches c's epoch, else from a rescan that re-stamps it; the gain is
/// always re-derived from the current ctx.scores. Read-only over the
/// clustering (`engine` is per-caller scratch), so concurrent calls are
/// safe.
std::optional<double> ToggleGain(bool is_row, size_t index, size_t c,
                                 const GainContext& ctx,
                                 ResidueEngine& engine);

/// ToggleGain of every entity t in [begin, end) -- rows first, then
/// columns, as GainDeterminer numbers them (t < num_rows is row t, else
/// column t - num_rows) -- in cluster c, into gains[(t - begin) *
/// stride]. Row rescans are batched kRowBatch at a time into one pane
/// pass (ResidueEngine::ResidueAfterToggleRows), and column rescans
/// kColBatch at a time (ResidueAfterToggleCols); constraint checks, memo
/// lookups and stores, tallies and block counts are ToggleGain's, entity
/// by entity, so every entry equals ToggleGain's, bit for bit. Audit
/// (ctx.audit_memo) also checks each batched result against a single
/// rescan. Concurrent calls are safe, as for ToggleGain.
void ClusterToggleGains(size_t c, size_t num_rows, size_t begin, size_t end,
                        const GainContext& ctx, ResidueEngine& engine,
                        std::optional<double>* gains, size_t stride);

/// The best of the k candidate actions for one row (is_row) or column:
/// the ToggleGain-highest toggle among those not blocked by constraints.
/// Concurrent calls are safe, as for ToggleGain.
Action BestActionFor(bool is_row, size_t index, const GainContext& ctx,
                     ResidueEngine& engine);

/// Brings one memo slot -- toggling row (is_row) or column `index` in
/// `ws` -- up to the cluster's live epoch: rescans and re-stamps it when
/// stale, leaves it alone when fresh. Constraints are not consulted, so
/// a refreshed slot is exactly what ToggleGain would have stamped on a
/// miss. Returns whether it rescanned (counting is the caller's). The
/// apply sweep's pool helpers refresh slots ahead of its coordinator
/// with it (ActionApplier).
bool RefreshGainSlot(bool is_row, size_t index, const ClusterWorkspace& ws,
                     GainMemo::Entry* slot, ResidueEngine& engine);

/// Phase-2 step 1: determines the best action for every row and column
/// against the current clustering, sharded over the thread pool. Each
/// shard works cluster-major: for each cluster in turn, every entity of
/// the shard (ClusterToggleGains, row and column rescans batched four to
/// a pane pass while the cluster's pane is hot), into a per-shard gain
/// table;
/// then each entity's best action over its k gains in cluster order,
/// with BestActionFor's strict `>` tie-break (the lowest cluster wins).
///
/// Determinism contract: shard boundaries depend only on the row+column
/// count (engine::ShardGrain); every shard writes disjoint elements of
/// the action vector and tallies blocked toggles into its own slot,
/// merged in shard order afterwards -- so the result is bit-identical
/// for any pool size, including the inline serial path below
/// `serial_cutoff` (see engine::kSerialCutoff).
class GainDeterminer {
 public:
  /// `pool` is non-owning and may be null (serial). `serial_cutoff` is
  /// the work-item count below which the scan always runs inline.
  /// `memo` is a non-owning, optional gain memo shared with the apply
  /// sweep (must be Configure()d for this matrix/cluster-count and
  /// outlive the determiner); `audit_memo` recomputes every memo hit.
  GainDeterminer(double target_residue, engine::ThreadPool* pool,
                 size_t serial_cutoff = engine::kSerialCutoff,
                 GainMemo* memo = nullptr, bool audit_memo = false)
      : target_residue_(target_residue),
        pool_(pool),
        serial_cutoff_(serial_cutoff),
        memo_(memo),
        audit_memo_(audit_memo) {}

  /// Returns rows() + cols() actions: rows first (action t targets row t
  /// for t < rows()), then columns. `scores` holds the current
  /// per-cluster objective values. When `blocked` is non-null, candidate
  /// toggles rejected by a constraint are tallied into it by reason.
  /// `stop` (optional) cancels at shard boundaries per the ParallelApply
  /// contract; the caller must check stop_requested() afterwards and
  /// discard the (partially filled) action vector wholesale.
  std::vector<Action> Determine(const DataMatrix& matrix,
                                const std::vector<ClusterWorkspace>& views,
                                const std::vector<double>& scores,
                                const ConstraintTracker& tracker,
                                obs::BlockCounts* blocked,
                                const StopToken* stop = nullptr) const;

 private:
  double target_residue_;
  engine::ThreadPool* pool_;
  size_t serial_cutoff_;
  GainMemo* memo_;
  bool audit_memo_;
};

/// Phase-2 step 4: tracks the best intermediate clustering of the apply
/// sweep -- the shortest applied-action prefix with the lowest average
/// objective among all prefixes observed this iteration. The first
/// observation always becomes the best (even when worse than the
/// incumbent it was seeded with); whether the iteration *improved* is
/// Floc's separate judgement of best_average() against the incumbent.
class BestPrefixSelector {
 public:
  /// `incumbent_average` is only reported back by best_average() while
  /// nothing has been observed (a sweep that applied zero actions).
  explicit BestPrefixSelector(double incumbent_average)
      : best_average_(incumbent_average) {}

  /// Records the clustering average after `prefix_length` applied
  /// actions. Strict improvement keeps the earliest best prefix on ties.
  void Observe(double average, size_t prefix_length) {
    if (!has_best_ || average < best_average_) {
      best_average_ = average;
      best_prefix_ = prefix_length;
      has_best_ = true;
    }
  }

  /// Whether any prefix was observed this sweep.
  bool has_best() const { return has_best_; }
  /// Best average observed; the incumbent when has_best() is false.
  double best_average() const { return best_average_; }
  /// Applied-action count of the best prefix (0 until has_best()).
  size_t best_prefix() const { return best_prefix_; }

 private:
  double best_average_;
  size_t best_prefix_ = 0;
  bool has_best_ = false;
};

/// One performed membership toggle (the apply sweep's journal, replayed
/// by Floc when rewinding to the best prefix).
struct AppliedAction {
  ActionTarget target;
  size_t index;
  size_t cluster;
};

/// Phase-2 step 3: performs the ordered actions sequentially against the
/// live clustering. Depending on FlocConfig::fresh_gains_at_apply each
/// action is either re-decided from scratch (the paper's "decided and
/// performed" reading) or re-validated and applied verbatim; non-positive
/// gains pass through the negative-action/annealing policy. Mutates
/// views, scores, score_sum, and the constraint tracker in place and
/// feeds every intermediate average to the BestPrefixSelector.
///
/// With fresh gains, a memo and a pool of more than one thread the sweep
/// is *pipelined*, with one pool fan-out (engine::ThreadPool::RunBeside)
/// for the whole sweep. The calling thread is the coordinator and runs
/// the serial loop unchanged: the same re-decisions, constraint checks,
/// rng draws and commit order. Beside it, each pool helper keeps
/// refreshing the memo slots of the next few entities of `order` from
/// the coordinator's published position on, rescanning every slot whose
/// stamp differs from its cluster's live epoch (RefreshGainSlot). The
/// coordinator's re-decisions then mostly hit. Three rules keep it
/// race-free and the results bit-identical to the serial loop:
///   * A helper scans cluster c only under c's reader/writer guard taken
///     shared with a try-lock (a held guard is skipped), and stamps the
///     epoch it read under the guard. The coordinator takes the guard
///     exclusively for each toggle, and refreshes c's pane and residue
///     cache before releasing it, so helpers only ever read a workspace.
///   * Memo slots are read and written atomically, the stamp publishing
///     the payload (GainMemo::Entry), so a lookup racing a helper's store
///     sees either the old stamp or the new evaluation whole.
///   * A stamp equal to the live epoch guarantees the same bits whoever
///     scanned (DESIGN.md "The gain kernel"), so a hit is exactly the
///     rescan the coordinator would have made, and two threads storing
///     one slot at once store the same bits.
/// Nothing the coordinator does waits for a helper, except a toggle of a
/// cluster a helper is scanning at that moment (one scan at most).
/// How far the helpers get depends on the schedule, so the memo counters
/// (floc.gain_evals_*) of such a sweep are schedule counters; its
/// results are not. Stale apply, no memo, or one thread run the plain
/// serial loop.
class ActionApplier {
 public:
  /// `memo` (optional, non-owning) is the gain memo shared with the
  /// determiner: the sweep's fresh re-decisions hit the entries the
  /// determination phase (or a pool helper) wrote for every cluster not
  /// mutated since. `pool` (optional, non-owning) runs the helpers.
  /// With FlocConfig::audit every performed toggle is audited under the
  /// context "move_phase", alpha-occupancy included when
  /// `audit_occupancy` (see the file comment).
  ActionApplier(const FlocConfig& config, GainMemo* memo = nullptr,
                engine::ThreadPool* pool = nullptr,
                bool audit_occupancy = false)
      : config_(&config),
        memo_(memo),
        pool_(pool),
        audit_occupancy_(audit_occupancy) {}

  /// Runs the sweep; returns the journal of performed toggles in order.
  /// `iteration` feeds the annealing temperature decay.
  std::vector<AppliedAction> Apply(const std::vector<Action>& actions,
                                   const std::vector<size_t>& order,
                                   size_t iteration,
                                   std::vector<ClusterWorkspace>& views,
                                   std::vector<double>& scores,
                                   double& score_sum,
                                   ConstraintTracker& tracker, Rng& rng,
                                   BestPrefixSelector& selector) const;

 private:
  const FlocConfig* config_;
  GainMemo* memo_;
  engine::ThreadPool* pool_;
  bool audit_occupancy_;
};

/// One refinement sweep (FlocConfig::refine_passes) over every cluster in
/// turn: all of the cluster's unblocked toggles are ranked by ToggleGain,
/// and those above kMinImprovement are applied best-first, each
/// re-validated by ToggleGain against the cluster's current state (an
/// earlier toggle shifts later gains). Updates `scores` and `tracker` as
/// it toggles. Evaluations go through `memo` (optional) and are tallied
/// into the floc.gain_evals_* counters once per sweep. Returns the number
/// of toggles applied.
size_t RefineSweep(const FlocConfig& config, const DataMatrix& matrix,
                   std::vector<ClusterWorkspace>& views,
                   std::vector<double>& scores, ConstraintTracker& tracker,
                   GainMemo* memo, bool audit_occupancy);

/// Alternating reassignment of cluster `c`: holding the row set, re-pick
/// the columns on which those rows are coherent (median absolute
/// deviation of row-centered values <= config.target_residue); then
/// holding the columns, re-pick the coherent rows; repeat twice. Single
/// toggles cannot escape the "poisoned fragment" local optimum -- a
/// cluster whose few junk rows block every column addition while
/// individually costing nothing to keep -- but a wholesale re-pick can.
/// The candidate replaces views[c] (a freshly built workspace, so its
/// stats equal a Build()) only if it satisfies the unary constraints,
/// stays within any overlap bound against the other views, and improves
/// *score by more than kMinImprovement; *score is then updated.
/// Returns whether views[c] was replaced. Requires target_residue > 0
/// (returns false otherwise). The caller rebuilds its ConstraintTracker
/// after a replacement.
bool ReanchorCluster(const FlocConfig& config, const DataMatrix& matrix,
                     std::vector<ClusterWorkspace>& views, size_t c,
                     double* score, bool audit_occupancy);

}  // namespace deltaclus

#endif  // DELTACLUS_CORE_FLOC_PHASES_H_
