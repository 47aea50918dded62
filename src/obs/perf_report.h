// End-of-run performance attribution. A PerfAccounting is constructed
// when a mining run starts (it snapshots the relevant registry counters
// and quantile histograms, plus the monotonic clock) and Finish()ed
// when the run ends; the resulting PerfReport attributes the run's wall
// time to phases, derives throughput/hit-rate figures from the metric
// *deltas* over the run window (no global resets -- concurrent runs on
// other registries are unaffected), and pulls per-phase CPU seconds
// from the trace ring when tracing was on.
//
// Everything here runs once per mining run, outside hot loops; when
// metrics are disabled the constructor is one predicted branch and the
// report simply carries metrics_valid = false.
#ifndef DELTACLUS_OBS_PERF_REPORT_H_
#define DELTACLUS_OBS_PERF_REPORT_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/obs/quantile_histogram.h"

namespace deltaclus::obs {

/// The standard export quantiles, read off a snapshot delta.
struct PerfQuantiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  uint64_t count = 0;

  static PerfQuantiles From(const QuantileHistogramSnapshot& snap);
};

/// One attributed phase of a run. `share` is wall_seconds divided by
/// the run's total (phases may overlap or undercover the run, so shares
/// need not sum to 1).
struct PerfPhase {
  std::string name;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;  // 0 when tracing was off
  double share = 0.0;
};

/// The assembled report. Counter-derived fields are only meaningful
/// when `metrics_valid` (metrics were enabled for the whole window);
/// per-phase cpu_seconds only when `trace_valid`.
struct PerfReport {
  std::string algorithm;  // "floc" or "cheng_church"
  double total_seconds = 0.0;
  double total_cpu_seconds = 0.0;
  uint64_t iterations = 0;
  /// Why the run stopped early: "deadline", "iteration_cap" or
  /// "cancelled" when a session budget cut it short
  /// (src/session/mining_session.h); empty when the run converged
  /// naturally. The result is a valid best-so-far clustering either way.
  std::string stopped_reason;
  std::vector<PerfPhase> phases;

  bool metrics_valid = false;
  bool trace_valid = false;
  uint64_t entries_scanned = 0;
  uint64_t gain_evals_served = 0;
  uint64_t gain_evals_recomputed = 0;
  double entries_per_second = 0.0;
  double dense_dispatch_rate = 0.0;  // dense entries / scanned entries
  double gain_memo_hit_rate = 0.0;   // served / (served + recomputed)
  uint64_t pool_sweeps = 0;
  uint64_t pool_shards = 0;
  uint64_t pane_rebuilds = 0;      // full gather rebuilds of a packed pane
  uint64_t pane_patches = 0;       // single-toggle in-place pane patches
  uint64_t pane_compactions = 0;   // declined patches (compacting rebuild)
  uint64_t clusters_skipped_clean = 0;  // sweeps served whole from the memo
  PerfQuantiles shard_imbalance;    // max/mean shard wall time per sweep
  PerfQuantiles iteration_latency;  // seconds per FLOC iteration

  /// Single-line JSON document (schema_version 1, validated by
  /// scripts/perf_report_schema.json).
  void WriteJson(std::ostream& out) const;
  std::string Json() const;
  bool WriteJsonFile(const std::string& path) const;

  /// Human-readable fixed-width table.
  void PrintTable(std::ostream& out) const;
};

/// Samples the run-start state; Finish() turns the deltas into a
/// PerfReport. One instance per run, on the run's controlling thread.
class PerfAccounting {
 public:
  PerfAccounting();

  /// `phases` carries the wall seconds measured by the caller;
  /// `phase_trace_names` aligns with it and names the trace span whose
  /// CPU time the phase aggregates (nullptr: no trace attribution).
  PerfReport Finish(const std::string& algorithm, double total_seconds,
                    double total_cpu_seconds, uint64_t iterations,
                    const std::string& stopped_reason,
                    std::vector<PerfPhase> phases,
                    const std::vector<const char*>& phase_trace_names) const;

 private:
  bool metrics_valid_ = false;
  int64_t start_ns_ = 0;
  uint64_t entries_scanned_ = 0;
  uint64_t entries_dense_ = 0;
  uint64_t gain_evals_served_ = 0;
  uint64_t gain_evals_recomputed_ = 0;
  uint64_t pool_sweeps_ = 0;
  uint64_t pool_shards_ = 0;
  uint64_t pane_rebuilds_ = 0;
  uint64_t pane_patches_ = 0;
  uint64_t pane_compactions_ = 0;
  uint64_t clusters_skipped_clean_ = 0;
  QuantileHistogramSnapshot shard_imbalance_;
  QuantileHistogramSnapshot iteration_latency_;
};

}  // namespace deltaclus::obs

#endif  // DELTACLUS_OBS_PERF_REPORT_H_
