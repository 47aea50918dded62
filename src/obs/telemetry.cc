#include "src/obs/telemetry.h"

#include <sstream>

#include "src/obs/json.h"

namespace deltaclus::obs {

std::optional<TelemetryLevel> ParseTelemetryLevel(const std::string& s) {
  if (s == "off") return TelemetryLevel::kOff;
  if (s == "summary") return TelemetryLevel::kSummary;
  if (s == "full") return TelemetryLevel::kFull;
  return std::nullopt;
}

const char* TelemetryLevelName(TelemetryLevel level) {
  switch (level) {
    case TelemetryLevel::kOff:
      return "off";
    case TelemetryLevel::kSummary:
      return "summary";
    case TelemetryLevel::kFull:
      return "full";
  }
  return "unknown";
}

size_t GainBucket(double gain) {
  size_t b = 0;
  while (b < kGainBucketBounds.size() && gain > kGainBucketBounds[b]) ++b;
  return b;
}

uint64_t BlockCounts::Total() const {
  uint64_t total = 0;
  for (size_t r = 1; r < counts.size(); ++r) total += counts[r];
  return total;
}

namespace {

void WriteBlockCounts(JsonWriter& w, const BlockCounts& blocked) {
  w.BeginObject();
  for (size_t r = 1; r < kBlockReasonCount; ++r) {
    w.Key(BlockReasonName(static_cast<BlockReason>(r))).Uint(blocked.counts[r]);
  }
  w.EndObject();
}

void WriteIteration(JsonWriter& w, const IterationTelemetry& it) {
  w.BeginObject();
  w.Key("iteration").Uint(it.iteration);
  w.Key("best_gain").Number(it.best_gain);
  w.Key("mean_gain").Number(it.mean_gain);
  w.Key("determined").Uint(it.determined);
  w.Key("fully_blocked").Uint(it.fully_blocked);
  w.Key("blocked_by");
  WriteBlockCounts(w, it.blocked_by);
  w.Key("actions_applied").Uint(it.actions_applied);
  w.Key("best_prefix").Uint(it.best_prefix);
  w.Key("best_average_score").Number(it.best_average_score);
  w.Key("best_so_far").Number(it.best_so_far);
  w.Key("improved").Bool(it.improved);
  w.Key("wall_seconds").Number(it.wall_seconds);
  w.Key("determine_seconds").Number(it.determine_seconds);
  w.Key("apply_seconds").Number(it.apply_seconds);
  if (!it.cluster_residues.empty()) {
    w.Key("gain_histogram").BeginArray();
    for (uint64_t c : it.gain_histogram) w.Uint(c);
    w.EndArray();
    w.Key("cluster_residues").BeginArray();
    for (double r : it.cluster_residues) w.Number(r);
    w.EndArray();
    w.Key("cluster_volumes").BeginArray();
    for (uint64_t v : it.cluster_volumes) w.Uint(v);
    w.EndArray();
  }
  w.EndObject();
}

void WriteRun(JsonWriter& w, const RunTelemetry& run, bool with_log) {
  w.BeginObject();
  w.Key("level").String(TelemetryLevelName(run.level));
  w.Key("total_actions_applied").Uint(run.total_actions_applied);
  w.Key("best_iteration").Uint(run.best_iteration);
  if (with_log) {
    w.Key("gain_bucket_bounds").BeginArray();
    for (double b : kGainBucketBounds) w.Number(b);
    w.EndArray();
    w.Key("iteration_log").BeginArray();
    for (const IterationTelemetry& it : run.iteration_log) {
      WriteIteration(w, it);
    }
    w.EndArray();
  }
  w.EndObject();
}

}  // namespace

void IterationTelemetry::WriteJson(std::ostream& out) const {
  JsonWriter w(out);
  WriteIteration(w, *this);
}

void RunTelemetry::WriteJson(std::ostream& out) const {
  JsonWriter w(out);
  WriteRun(w, *this, /*with_log=*/true);
}

std::string RunTelemetry::Json() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

void JsonlTelemetrySink::OnIteration(const IterationTelemetry& iteration) {
  if (failed_) return;
  JsonWriter w(out_);
  w.BeginObject();
  w.Key("event").String("iteration");
  w.Key("data");
  WriteIteration(w, iteration);
  w.EndObject();
  out_ << "\n";
  // ostream ops do not throw by default; a bad stream (unwritable
  // path, disk full) just raises failbit/badbit. Latch it so the run
  // continues and the caller can report the loss afterwards.
  if (!out_) failed_ = true;
}

void JsonlTelemetrySink::OnRunEnd(const RunTelemetry& run) {
  if (failed_) return;
  JsonWriter w(out_);
  w.BeginObject();
  w.Key("event").String("run_end");
  w.Key("data");
  // The per-iteration log was already streamed line by line.
  WriteRun(w, run, /*with_log=*/false);
  w.EndObject();
  out_ << "\n";
  out_.flush();
  if (!out_) failed_ = true;
}

IterationTelemetry* TelemetryCollector::BeginIteration(size_t iteration) {
  if (level_ == TelemetryLevel::kOff) return nullptr;
  current_ = IterationTelemetry{};
  current_.iteration = iteration;
  iteration_open_ = true;
  return &current_;
}

void TelemetryCollector::FinishIteration() {
  if (!iteration_open_) return;
  iteration_open_ = false;
  run_.iteration_log.push_back(current_);
  if (sink_ != nullptr) sink_->OnIteration(current_);
}

RunTelemetry TelemetryCollector::Finish() {
  run_.total_actions_applied = 0;
  run_.best_iteration = 0;
  for (const IterationTelemetry& it : run_.iteration_log) {
    run_.total_actions_applied += it.actions_applied;
    if (it.improved) run_.best_iteration = it.iteration;
  }
  if (sink_ != nullptr) sink_->OnRunEnd(run_);
  return std::move(run_);
}

}  // namespace deltaclus::obs
