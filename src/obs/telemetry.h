// FLOC run telemetry: a machine-readable record of a run's internal
// dynamics -- per-iteration action-gain statistics, accepted vs blocked
// action counts by constraint, and per-cluster residue and volume
// trajectories. The paper's entire evaluation (Tables 1-5, Figures
// 8-10) is about these dynamics; this layer makes them observable on
// every run instead of reconstructable only from bespoke experiment
// drivers.
//
// Three levels:
//   kOff      nothing collected; the hot paths take a single branch.
//   kSummary  per-iteration scalars (gains, counts, timings).
//   kFull     kSummary plus per-cluster residue/volume trajectories and
//             the per-iteration action-gain histogram.
//
// Telemetry is the run's one per-iteration record. Run-level facts live
// elsewhere, each in one place: phase walls, totals and the stop reason
// in FlocResult::perf (src/obs/perf_report.h), the clustering and its
// iteration count in FlocResult itself.
//
// Collection is attached to FlocResult (RunTelemetry) and can
// additionally be *streamed* while the run progresses through a
// pluggable TelemetrySink (e.g. JsonlTelemetrySink for JSONL files).
#ifndef DELTACLUS_OBS_TELEMETRY_H_
#define DELTACLUS_OBS_TELEMETRY_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/constraints.h"

namespace deltaclus::obs {

/// How much a FLOC run records about itself.
enum class TelemetryLevel : uint8_t { kOff = 0, kSummary, kFull };

/// Parses "off" / "summary" / "full"; nullopt on anything else.
std::optional<TelemetryLevel> ParseTelemetryLevel(const std::string& s);
const char* TelemetryLevelName(TelemetryLevel level);

/// Fixed bucket bounds of the per-iteration action-gain histogram.
/// Bucket b counts gains g with g <= bounds[b] (first match); the last
/// bucket catches everything above 10. Gains are objective-score
/// deltas; the symmetric log-spaced bounds resolve both the tiny
/// late-run gains and the large early-run ones.
inline constexpr std::array<double, 9> kGainBucketBounds = {
    -10.0, -1.0, -0.1, -0.01, 0.0, 0.01, 0.1, 1.0, 10.0};
inline constexpr size_t kGainBucketCount = kGainBucketBounds.size() + 1;

/// Bucket index for one gain (no allocation, no branching beyond the
/// scan; bounds are tiny).
size_t GainBucket(double gain);

/// Per-constraint tally of blocked candidate toggles. Index: the
/// BlockReason enum value; kNone's slot stays zero. Merged across the
/// gain-determination worker threads (integer adds, order-independent,
/// so results stay deterministic for any thread count).
struct BlockCounts {
  std::array<uint64_t, kBlockReasonCount> counts{};

  void Add(BlockReason reason) {
    counts[static_cast<size_t>(reason)] += 1;
  }
  void Merge(const BlockCounts& other) {
    for (size_t r = 0; r < counts.size(); ++r) counts[r] += other.counts[r];
  }
  /// Blocked toggles across all real reasons (kNone excluded).
  uint64_t Total() const;
};

/// One Phase-2 iteration's record.
struct IterationTelemetry {
  /// 0-based and counted over the whole run: a resumed session's first
  /// record carries the checkpoint's iteration count, not 0.
  size_t iteration = 0;

  // Gain statistics over the N + M determined best actions.
  double best_gain = 0.0;  ///< Highest non-blocked gain.
  double mean_gain = 0.0;  ///< Mean over non-blocked actions.
  size_t determined = 0;   ///< Rows/cols with a non-blocked best action.
  size_t fully_blocked = 0;  ///< Rows/cols whose every candidate was blocked.
  /// Candidate toggles blocked during gain determination, by constraint.
  BlockCounts blocked_by;
  /// kFull only: histogram of non-blocked gains (kGainBucketBounds).
  std::array<uint64_t, kGainBucketCount> gain_histogram{};

  // Apply-sweep outcome.
  size_t actions_applied = 0;  ///< Toggles actually performed.
  /// Checkpoint: number of applied actions in the best intermediate
  /// clustering (the prefix FLOC rewinds to when the iteration improves).
  size_t best_prefix = 0;
  /// Best intermediate average objective score seen this iteration.
  double best_average_score = 0.0;
  /// Running best average objective after this iteration -- non-increasing
  /// across the run by construction. Equals the average residue when
  /// target_residue == 0.
  double best_so_far = 0.0;
  bool improved = false;

  double wall_seconds = 0.0;
  /// Wall time of the gain-determination phase (the parallel scan).
  double determine_seconds = 0.0;
  /// Wall time of the sequential apply sweep.
  double apply_seconds = 0.0;

  // kFull only: the clustering the iteration kept, taken after the
  // rewind -- the new best clustering when the iteration improved; the
  // unchanged best clustering (the sweep rewound in full) after the
  // final, non-improving iteration.
  std::vector<double> cluster_residues;
  std::vector<uint64_t> cluster_volumes;

  void WriteJson(std::ostream& out) const;
};

/// Whole-run record, attached to FlocResult::telemetry: the iteration
/// log and two summaries derived from it. Covers the iterations this
/// session ran -- a resumed session logs from the checkpoint's
/// iteration on.
struct RunTelemetry {
  TelemetryLevel level = TelemetryLevel::kOff;

  /// Sum of actions_applied over `iteration_log`.
  uint64_t total_actions_applied = 0;
  /// `iteration` number of the last improving entry of `iteration_log`
  /// (the checkpoint the final clustering descends from); 0 when no
  /// logged iteration improved.
  size_t best_iteration = 0;

  /// Per-iteration records; empty at kOff.
  std::vector<IterationTelemetry> iteration_log;

  void WriteJson(std::ostream& out) const;
  std::string Json() const;
};

/// Streaming consumer of telemetry records. Implementations must not
/// retain references to the passed records beyond the call.
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void OnIteration(const IterationTelemetry& iteration) = 0;
  virtual void OnRunEnd(const RunTelemetry& run) = 0;
};

/// Writes one JSON object per line: {"event":"iteration",...} per
/// iteration and a final {"event":"run_end",...}. The stream must
/// outlive the sink.
///
/// Failure policy: a stream error (unwritable path, disk full, short
/// write) must never abort the mining run. The sink latches the first
/// failure, stops writing, and reports it through ok(); callers check
/// after the run and warn.
class JsonlTelemetrySink : public TelemetrySink {
 public:
  explicit JsonlTelemetrySink(std::ostream& out) : out_(out) {}
  void OnIteration(const IterationTelemetry& iteration) override;
  void OnRunEnd(const RunTelemetry& run) override;

  /// False once any write failed; no further writes are attempted.
  bool ok() const { return !failed_; }

 private:
  std::ostream& out_;
  bool failed_ = false;
};

/// Assembles a RunTelemetry during a FLOC run. The kOff fast paths are
/// allocation-free: BeginIteration returns nullptr after one branch and
/// every other hook returns immediately (asserted by
/// floc_telemetry_test).
///
/// Thread contract: externally synchronized, single owner. Every hook
/// is called from FLOC's coordinating thread only -- the parallel gain
/// sweep never touches the collector; per-shard BlockCounts are merged
/// in shard order on the coordinator after the pool joins and only then
/// recorded here. There is deliberately no mutex (and so nothing for
/// Clang TSA to check): adding one would put a lock on the iteration
/// hot path to protect state that has exactly one writer by design.
/// dclint's `raw-mutex` rule keeps it that way -- a future concurrent
/// writer must go through dc::Mutex and annotate, not sneak in a
/// std::mutex.
class TelemetryCollector {
 public:
  TelemetryCollector(TelemetryLevel level, TelemetrySink* sink)
      : level_(level), sink_(sink) {
    run_.level = level;
  }

  bool enabled() const { return level_ != TelemetryLevel::kOff; }
  bool full() const { return level_ == TelemetryLevel::kFull; }

  /// Starts a new iteration record; nullptr when disabled. The pointer
  /// stays valid until FinishIteration().
  IterationTelemetry* BeginIteration(size_t iteration);

  /// Seals the current iteration: appends it to the run log and streams
  /// it to the sink. No-op when disabled or with no open iteration.
  void FinishIteration();

  /// Discards the current iteration record without logging or streaming
  /// it -- used when a cancellation token fires mid-sweep and the
  /// iteration's partial work is thrown away wholesale. No-op when
  /// disabled or with no open iteration.
  void AbandonIteration() { iteration_open_ = false; }

  /// Finalizes: derives the two summaries from the log, notifies the
  /// sink, and returns the record.
  RunTelemetry Finish();

 private:
  TelemetryLevel level_;
  TelemetrySink* sink_;
  RunTelemetry run_;
  IterationTelemetry current_;
  bool iteration_open_ = false;
};

}  // namespace deltaclus::obs

#endif  // DELTACLUS_OBS_TELEMETRY_H_
