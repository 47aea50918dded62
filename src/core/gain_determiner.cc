#include <bit>
#include <cstdint>

#include "src/core/floc_phases.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace deltaclus {

namespace {

// After-toggle evaluations answered by the epoch-stamped gain memo
// instead of an O(volume) rescan. Together with
// floc.gain_eval_entries_scanned this measures how much scanning the
// memoization avoids.
obs::Counter* GainMemoServedCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "floc.gain_evals_served_from_cache");
  return counter;
}

// After-toggle evaluations that had to rescan (cold or stale memo slot,
// or no memo configured). served / (served + recomputed) is the memo
// hit rate reported by obs::PerfReport.
obs::Counter* GainMemoRecomputedCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "floc.gain_evals_recomputed");
  return counter;
}

// The memo's one slot protocol: the after-toggle residue and volume of
// toggling row|col `index` in `ws`, served from `slot` when its stamp
// equals the live epoch, else rescanned and `slot` re-stamped. A null
// `slot` (no memo, the reference path) always rescans. Returns whether
// it rescanned; counting is the caller's.
bool LookupOrRescan(bool is_row, size_t index, const ClusterWorkspace& ws,
                    GainMemo::Entry* slot, ResidueEngine& engine,
                    double* after_residue, size_t* new_volume) {
  uint64_t epoch = ws.epoch();
  // Hit: the cluster's membership (hence its stats, hence the whole
  // after-toggle scan) is unchanged since the entry was stamped, so the
  // stored residue/volume are bit-identical to what a rescan would
  // produce.
  if (slot != nullptr && slot->Lookup(epoch, after_residue, new_volume)) {
    return false;
  }
  *after_residue = is_row ? engine.ResidueAfterToggleRow(ws, index, new_volume)
                          : engine.ResidueAfterToggleCol(ws, index, new_volume);
  if (slot != nullptr) slot->Store(epoch, *after_residue, *new_volume);
  return true;
}

// Publishes per-shard tallies, merged in shard order: one atomic add per
// counter per sweep.
void FlushShardTallies(const std::vector<SweepTally>& tallies) {
  SweepTally total;
  for (const SweepTally& t : tallies) total.Merge(t);
  total.Flush();
}

// Whether the constraints admit toggling row|col `index` in cluster c,
// tallying a block by reason when ctx.blocked is set. Always checked
// fresh: whether a toggle is blocked depends on *other* clusters
// (overlap, coverage), which the target cluster's epoch does not cover.
bool ToggleAllowed(bool is_row, size_t index, size_t c,
                   const GainContext& ctx) {
  const std::vector<ClusterWorkspace>& views = *ctx.views;
  if (ctx.blocked == nullptr) {
    return is_row ? ctx.tracker->RowToggleAllowed(views, c, index)
                  : ctx.tracker->ColToggleAllowed(views, c, index);
  }
  BlockReason reason = is_row
                           ? ctx.tracker->RowToggleBlockReason(views, c, index)
                           : ctx.tracker->ColToggleBlockReason(views, c, index);
  if (reason == BlockReason::kNone) return true;
  ctx.blocked->Add(reason);
  return false;
}

// Audit: an after-toggle residue and volume that did not come from a
// single-candidate rescan (a memo hit, or a batched scan) must equal one
// bit for bit.
void AuditAfterToggle(bool is_row, size_t index, size_t c,
                      const ClusterWorkspace& ws, ResidueEngine& engine,
                      double after_residue, size_t new_volume,
                      const char* source) {
  size_t check_volume = 0;
  double check_residue =
      is_row ? engine.ResidueAfterToggleRow(ws, index, &check_volume)
             : engine.ResidueAfterToggleCol(ws, index, &check_volume);
  DC_CHECK(std::bit_cast<uint64_t>(check_residue) ==
               std::bit_cast<uint64_t>(after_residue) &&
           check_volume == new_volume)
      << source << " drift at (" << (is_row ? "row " : "col ") << index
      << ", cluster " << c << "): residue=" << after_residue
      << " volume=" << new_volume << " vs recomputed " << check_residue
      << " / " << check_volume;
}

// The gain from an after-toggle evaluation. It is re-derived from the
// *current* score vector even on memo hits: scores move whenever any
// cluster's residue moves, and the epoch only vouches for this cluster's
// membership.
double GainFrom(size_t c, const GainContext& ctx, double after_residue,
                size_t new_volume) {
  return (*ctx.scores)[c] -
         ObjectiveScore(after_residue, new_volume, ctx.target_residue);
}

// Folds cluster c's candidate gain (nullopt = blocked) into `best`,
// visited in c order: the highest gain wins, the lowest cluster on ties.
void Consider(size_t c, const std::optional<double>& gain, Action& best) {
  if (!gain) return;
  if (best.blocked() || *gain > best.gain) {
    best.gain = *gain;
    best.cluster = c;
  }
}

Action Unassigned(bool is_row, size_t index) {
  Action best;
  best.target = is_row ? ActionTarget::kRow : ActionTarget::kCol;
  best.index = index;
  return best;
}

}  // namespace

void SweepTally::Flush() const {
  scan.Flush();
  if (recomputed != 0) GainMemoRecomputedCounter()->Inc(recomputed);
  if (served != 0) GainMemoServedCounter()->Inc(served);
}

std::optional<double> ToggleGain(bool is_row, size_t index, size_t c,
                                 const GainContext& ctx,
                                 ResidueEngine& engine) {
  if (!ToggleAllowed(is_row, index, c, ctx)) return std::nullopt;
  const ClusterWorkspace& ws = (*ctx.views)[c];
  size_t new_volume = 0;
  double after_residue = 0.0;
  GainMemo::Entry* slot =
      ctx.memo != nullptr ? ctx.memo->Slot(is_row, index, c) : nullptr;
  if (LookupOrRescan(is_row, index, ws, slot, engine, &after_residue,
                     &new_volume)) {
    ++ctx.tally->recomputed;
  } else {
    ++ctx.tally->served;
    if (ctx.audit_memo) {
      AuditAfterToggle(is_row, index, c, ws, engine, after_residue,
                       new_volume, "gain memo");
    }
  }
  return GainFrom(c, ctx, after_residue, new_volume);
}

void ClusterToggleGains(size_t c, size_t num_rows, size_t begin, size_t end,
                        const GainContext& ctx, ResidueEngine& engine,
                        std::optional<double>* gains, size_t stride) {
  const ClusterWorkspace& ws = (*ctx.views)[c];
  uint64_t epoch = ws.epoch();
  // Row rescans waiting for a batch: the row (entity t is row t) and its
  // memo slot.
  size_t batch_t[kRowBatch];
  GainMemo::Entry* batch_slots[kRowBatch];
  size_t pending = 0;
  auto flush = [&] {
    double after_residue[kRowBatch];
    size_t new_volume[kRowBatch];
    engine.ResidueAfterToggleRows(ws, batch_t, pending, after_residue,
                                  new_volume);
    for (size_t q = 0; q < pending; ++q) {
      if (ctx.audit_memo) {
        AuditAfterToggle(/*is_row=*/true, batch_t[q], c, ws, engine,
                         after_residue[q], new_volume[q], "batched scan");
      }
      if (batch_slots[q] != nullptr) {
        batch_slots[q]->Store(epoch, after_residue[q], new_volume[q]);
      }
      ++ctx.tally->recomputed;
      gains[(batch_t[q] - begin) * stride] =
          GainFrom(c, ctx, after_residue[q], new_volume[q]);
    }
    pending = 0;
  };
  for (size_t t = begin; t < end; ++t) {
    std::optional<double>& gain = gains[(t - begin) * stride];
    if (t >= num_rows) {
      // Columns are not batched.
      gain = ToggleGain(/*is_row=*/false, t - num_rows, c, ctx, engine);
      continue;
    }
    if (!ToggleAllowed(/*is_row=*/true, t, c, ctx)) {
      gain = std::nullopt;
      continue;
    }
    GainMemo::Entry* slot =
        ctx.memo != nullptr ? ctx.memo->Slot(/*is_row=*/true, t, c) : nullptr;
    double after_residue = 0.0;
    size_t new_volume = 0;
    if (slot != nullptr && slot->Lookup(epoch, &after_residue, &new_volume)) {
      ++ctx.tally->served;
      if (ctx.audit_memo) {
        AuditAfterToggle(/*is_row=*/true, t, c, ws, engine, after_residue,
                         new_volume, "gain memo");
      }
      gain = GainFrom(c, ctx, after_residue, new_volume);
      continue;
    }
    batch_t[pending] = t;
    batch_slots[pending] = slot;
    if (++pending == kRowBatch) flush();
  }
  if (pending > 0) flush();
}

Action BestActionFor(bool is_row, size_t index, const GainContext& ctx,
                     ResidueEngine& engine) {
  Action best = Unassigned(is_row, index);
  for (size_t c = 0; c < ctx.views->size(); ++c) {
    Consider(c, ToggleGain(is_row, index, c, ctx, engine), best);
  }
  return best;
}

std::vector<Action> GainDeterminer::Determine(
    const DataMatrix& matrix, const std::vector<ClusterWorkspace>& views,
    const std::vector<double>& scores, const ConstraintTracker& tracker,
    obs::BlockCounts* blocked, const StopToken* stop) const {
  DC_TRACE_SPAN("floc/determine_actions");
  size_t num_rows = matrix.rows();
  size_t total = num_rows + matrix.cols();
  std::vector<Action> actions(total);

  // Build every cluster's packed pane on the coordinating thread before
  // fanning out: pane fills are not thread-safe, but once the epoch
  // stamp matches, the shard bodies' EnsurePane calls are read-only.
  for (const ClusterWorkspace& ws : views) ws.EnsurePane();

  // Per-shard blocked-toggle and evaluation tallies, merged in shard
  // order after the sweep. Shard count is a function of `total` only, so
  // the merged counts -- like the action vector -- are identical at any
  // pool size.
  size_t shards = engine::ShardCount(total, engine::ShardGrain(total));
  std::vector<obs::BlockCounts> shard_counts(blocked != nullptr ? shards : 0);
  std::vector<SweepTally> shard_tallies(shards);

  engine::ParallelApply(
      pool_, total,
      [&](size_t begin, size_t end, size_t shard) {
        // Tallied on the shard's stack and stored once, so neighbouring
        // shards never write one cache line per evaluation.
        SweepTally tally;
        GainContext ctx{&views, &scores, &tracker, target_residue_,
                        blocked != nullptr ? &shard_counts[shard] : nullptr,
                        memo_, audit_memo_, &tally};
        // Per-shard scratch: ResidueEngine's buffers must not be shared
        // across threads, and construction is trivial next to the scan.
        ResidueEngine engine(ResidueNorm::kMeanAbsolute, &tally.scan);
        // Cluster-major: every entity of the shard against cluster c
        // while c's pane is hot, row rescans batched, into an
        // entity-major gain table; then each entity's best in c order.
        size_t k = views.size();
        std::vector<std::optional<double>> gains((end - begin) * k);
        for (size_t c = 0; c < k; ++c) {
          ClusterToggleGains(c, num_rows, begin, end, ctx, engine,
                             gains.data() + c, k);
        }
        for (size_t t = begin; t < end; ++t) {
          bool is_row = t < num_rows;
          Action best = Unassigned(is_row, is_row ? t : t - num_rows);
          const std::optional<double>* entity = &gains[(t - begin) * k];
          for (size_t c = 0; c < k; ++c) Consider(c, entity[c], best);
          actions[t] = best;
        }
        shard_tallies[shard] = tally;
      },
      serial_cutoff_, stop);

  if (blocked != nullptr) {
    for (const obs::BlockCounts& sc : shard_counts) blocked->Merge(sc);
  }
  FlushShardTallies(shard_tallies);
  return actions;
}

bool RefreshGainSlot(bool is_row, size_t index, const ClusterWorkspace& ws,
                     GainMemo::Entry* slot, ResidueEngine& engine) {
  double after_residue = 0.0;
  size_t new_volume = 0;
  return LookupOrRescan(is_row, index, ws, slot, engine, &after_residue,
                        &new_volume);
}

}  // namespace deltaclus
