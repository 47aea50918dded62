#include "src/obs/perf_report.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/obs/clock.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace deltaclus::obs {

namespace {

// Counter/histogram names shared with the recording sites (floc.cc,
// gain_determiner.cc, residue.cc, thread_pool.cc). Registration is
// idempotent, so sampling here cannot clash with the recorders.
constexpr char kEntriesScanned[] = "floc.gain_eval_entries_scanned";
constexpr char kEntriesDense[] = "floc.gain_eval_entries_dense";
constexpr char kMemoServed[] = "floc.gain_evals_served_from_cache";
constexpr char kMemoRecomputed[] = "floc.gain_evals_recomputed";
constexpr char kPoolSweeps[] = "engine.pool.sweeps";
constexpr char kPoolShards[] = "engine.pool.shards";
constexpr char kPaneRebuilds[] = "floc.pane.rebuilds";
constexpr char kPanePatches[] = "floc.pane.patches";
constexpr char kPaneCompactions[] = "floc.pane.compactions";
constexpr char kClustersSkippedClean[] = "floc.sweep.clusters_skipped_clean";
constexpr char kShardImbalance[] = "engine.pool.shard_imbalance";
constexpr char kIterationLatency[] = "floc.iteration.latency";

uint64_t SatSub(uint64_t now, uint64_t then) {
  return now > then ? now - then : 0;
}

}  // namespace

PerfQuantiles PerfQuantiles::From(const QuantileHistogramSnapshot& snap) {
  PerfQuantiles q;
  q.p50 = snap.ValueAtQuantile(0.50);
  q.p90 = snap.ValueAtQuantile(0.90);
  q.p99 = snap.ValueAtQuantile(0.99);
  q.p999 = snap.ValueAtQuantile(0.999);
  q.count = snap.count;
  return q;
}

PerfAccounting::PerfAccounting() : start_ns_(MonotonicNowNs()) {
  if (!MetricsRegistry::Enabled()) return;
  metrics_valid_ = true;
  MetricsRegistry& r = MetricsRegistry::Global();
  entries_scanned_ = r.GetCounter(kEntriesScanned)->Value();
  entries_dense_ = r.GetCounter(kEntriesDense)->Value();
  gain_evals_served_ = r.GetCounter(kMemoServed)->Value();
  gain_evals_recomputed_ = r.GetCounter(kMemoRecomputed)->Value();
  pool_sweeps_ = r.GetCounter(kPoolSweeps)->Value();
  pool_shards_ = r.GetCounter(kPoolShards)->Value();
  pane_rebuilds_ = r.GetCounter(kPaneRebuilds)->Value();
  pane_patches_ = r.GetCounter(kPanePatches)->Value();
  pane_compactions_ = r.GetCounter(kPaneCompactions)->Value();
  clusters_skipped_clean_ = r.GetCounter(kClustersSkippedClean)->Value();
  shard_imbalance_ =
      r.GetQuantileHistogram(kShardImbalance, RatioOptions())->Snapshot();
  iteration_latency_ =
      r.GetQuantileHistogram(kIterationLatency, LatencySecondsOptions())
          ->Snapshot();
}

PerfReport PerfAccounting::Finish(
    const std::string& algorithm, double total_seconds,
    double total_cpu_seconds, uint64_t iterations,
    const std::string& stopped_reason, std::vector<PerfPhase> phases,
    const std::vector<const char*>& phase_trace_names) const {
  PerfReport report;
  report.algorithm = algorithm;
  report.total_seconds = total_seconds;
  report.total_cpu_seconds = total_cpu_seconds;
  report.iterations = iterations;
  report.stopped_reason = stopped_reason;

  // The window is only trustworthy if metrics were on at both ends; a
  // mid-run enable would under-count the start snapshot.
  report.metrics_valid = metrics_valid_ && MetricsRegistry::Enabled();
  if (report.metrics_valid) {
    MetricsRegistry& r = MetricsRegistry::Global();
    report.entries_scanned =
        SatSub(r.GetCounter(kEntriesScanned)->Value(), entries_scanned_);
    uint64_t dense =
        SatSub(r.GetCounter(kEntriesDense)->Value(), entries_dense_);
    report.gain_evals_served =
        SatSub(r.GetCounter(kMemoServed)->Value(), gain_evals_served_);
    report.gain_evals_recomputed =
        SatSub(r.GetCounter(kMemoRecomputed)->Value(), gain_evals_recomputed_);
    report.pool_sweeps =
        SatSub(r.GetCounter(kPoolSweeps)->Value(), pool_sweeps_);
    report.pool_shards =
        SatSub(r.GetCounter(kPoolShards)->Value(), pool_shards_);
    report.pane_rebuilds =
        SatSub(r.GetCounter(kPaneRebuilds)->Value(), pane_rebuilds_);
    report.pane_patches =
        SatSub(r.GetCounter(kPanePatches)->Value(), pane_patches_);
    report.pane_compactions =
        SatSub(r.GetCounter(kPaneCompactions)->Value(), pane_compactions_);
    report.clusters_skipped_clean = SatSub(
        r.GetCounter(kClustersSkippedClean)->Value(), clusters_skipped_clean_);
    report.entries_per_second =
        total_seconds > 0.0
            ? static_cast<double>(report.entries_scanned) / total_seconds
            : 0.0;
    report.dense_dispatch_rate =
        report.entries_scanned > 0
            ? static_cast<double>(dense) /
                  static_cast<double>(report.entries_scanned)
            : 0.0;
    uint64_t evals = report.gain_evals_served + report.gain_evals_recomputed;
    report.gain_memo_hit_rate =
        evals > 0 ? static_cast<double>(report.gain_evals_served) /
                        static_cast<double>(evals)
                  : 0.0;
    report.shard_imbalance = PerfQuantiles::From(
        r.GetQuantileHistogram(kShardImbalance, RatioOptions())
            ->Snapshot()
            .Delta(shard_imbalance_));
    report.iteration_latency = PerfQuantiles::From(
        r.GetQuantileHistogram(kIterationLatency, LatencySecondsOptions())
            ->Snapshot()
            .Delta(iteration_latency_));
  }

  // Per-phase CPU attribution: sum the thread-CPU time of every trace
  // span carrying the phase's span name that started inside the run
  // window. Spans run on many threads, so phase CPU can exceed wall.
  report.trace_valid = TraceRecorder::Enabled();
  if (report.trace_valid) {
    std::vector<TraceEvent> events = TraceRecorder::Global().Snapshot();
    for (size_t p = 0; p < phases.size() && p < phase_trace_names.size();
         ++p) {
      const char* span_name = phase_trace_names[p];
      if (span_name == nullptr) continue;
      int64_t cpu_ns = 0;
      for (const TraceEvent& e : events) {
        if (e.start_ns >= start_ns_ && e.name != nullptr &&
            std::strcmp(e.name, span_name) == 0) {
          cpu_ns += e.cpu_ns;
        }
      }
      phases[p].cpu_seconds = static_cast<double>(cpu_ns) * 1e-9;
    }
  }

  for (PerfPhase& phase : phases) {
    phase.share =
        total_seconds > 0.0 ? phase.wall_seconds / total_seconds : 0.0;
  }
  report.phases = std::move(phases);
  return report;
}

namespace {

void WriteQuantilesJson(JsonWriter& w, const PerfQuantiles& q) {
  w.BeginObject();
  w.Key("p50").Number(q.p50);
  w.Key("p90").Number(q.p90);
  w.Key("p99").Number(q.p99);
  w.Key("p999").Number(q.p999);
  w.Key("count").Uint(q.count);
  w.EndObject();
}

}  // namespace

void PerfReport::WriteJson(std::ostream& out) const {
  JsonWriter w(out);
  w.BeginObject();
  w.Key("schema_version").Int(1);
  w.Key("algorithm").String(algorithm);
  w.Key("total_seconds").Number(total_seconds);
  w.Key("total_cpu_seconds").Number(total_cpu_seconds);
  w.Key("iterations").Uint(iterations);
  w.Key("stopped_reason").String(stopped_reason);
  w.Key("metrics_valid").Bool(metrics_valid);
  w.Key("trace_valid").Bool(trace_valid);
  w.Key("phases").BeginArray();
  for (const PerfPhase& phase : phases) {
    w.BeginObject();
    w.Key("name").String(phase.name);
    w.Key("wall_seconds").Number(phase.wall_seconds);
    w.Key("cpu_seconds").Number(phase.cpu_seconds);
    w.Key("share").Number(phase.share);
    w.EndObject();
  }
  w.EndArray();
  w.Key("entries_scanned").Uint(entries_scanned);
  w.Key("gain_evals_served").Uint(gain_evals_served);
  w.Key("gain_evals_recomputed").Uint(gain_evals_recomputed);
  w.Key("entries_per_second").Number(entries_per_second);
  w.Key("dense_dispatch_rate").Number(dense_dispatch_rate);
  w.Key("gain_memo_hit_rate").Number(gain_memo_hit_rate);
  w.Key("pool_sweeps").Uint(pool_sweeps);
  w.Key("pool_shards").Uint(pool_shards);
  w.Key("pane_rebuilds").Uint(pane_rebuilds);
  w.Key("pane_patches").Uint(pane_patches);
  w.Key("pane_compactions").Uint(pane_compactions);
  w.Key("clusters_skipped_clean").Uint(clusters_skipped_clean);
  w.Key("shard_imbalance");
  WriteQuantilesJson(w, shard_imbalance);
  w.Key("iteration_latency");
  WriteQuantilesJson(w, iteration_latency);
  w.EndObject();
  out << "\n";
}

std::string PerfReport::Json() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

bool PerfReport::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  WriteJson(out);
  return out.good();
}

void PerfReport::PrintTable(std::ostream& out) const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "perf report: %s -- %.3f s wall, %.3f s cpu, %llu iterations\n",
                algorithm.c_str(), total_seconds, total_cpu_seconds,
                static_cast<unsigned long long>(iterations));
  out << buf;
  if (!stopped_reason.empty()) {
    out << "  stopped early: " << stopped_reason
        << " (result is the best clustering found so far)\n";
  }
  std::snprintf(buf, sizeof(buf), "  %-20s %12s %12s %7s\n", "phase",
                "wall (s)", "cpu (s)", "share");
  out << buf;
  for (const PerfPhase& phase : phases) {
    std::snprintf(buf, sizeof(buf), "  %-20s %12.6f %12.6f %6.1f%%\n",
                  phase.name.c_str(), phase.wall_seconds, phase.cpu_seconds,
                  phase.share * 100.0);
    out << buf;
  }
  if (!trace_valid) {
    out << "  (per-phase cpu requires tracing: --trace-out or "
           "TraceRecorder::SetEnabled)\n";
  }
  if (!metrics_valid) {
    out << "  (kernel counters require metrics: --metrics-out or "
           "MetricsRegistry::SetEnabled)\n";
    return;
  }
  std::snprintf(buf, sizeof(buf),
                "  entries scanned   : %llu (%.3g/s, %.1f%% dense dispatch)\n",
                static_cast<unsigned long long>(entries_scanned),
                entries_per_second, dense_dispatch_rate * 100.0);
  out << buf;
  std::snprintf(
      buf, sizeof(buf),
      "  gain memo         : %.1f%% hit (%llu served / %llu recomputed)\n",
      gain_memo_hit_rate * 100.0,
      static_cast<unsigned long long>(gain_evals_served),
      static_cast<unsigned long long>(gain_evals_recomputed));
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "  pane              : %llu patches / %llu rebuilds "
                "(%llu compactions), %llu clean-cluster sweeps skipped\n",
                static_cast<unsigned long long>(pane_patches),
                static_cast<unsigned long long>(pane_rebuilds),
                static_cast<unsigned long long>(pane_compactions),
                static_cast<unsigned long long>(clusters_skipped_clean));
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "  pool              : %llu sweeps, %llu shards, imbalance "
                "p50 %.2f p99 %.2f\n",
                static_cast<unsigned long long>(pool_sweeps),
                static_cast<unsigned long long>(pool_shards),
                shard_imbalance.p50, shard_imbalance.p99);
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "  iteration latency : p50 %.6f s, p90 %.6f s, p99 %.6f s "
                "(n=%llu)\n",
                iteration_latency.p50, iteration_latency.p90,
                iteration_latency.p99,
                static_cast<unsigned long long>(iteration_latency.count));
  out << buf;
}

}  // namespace deltaclus::obs
