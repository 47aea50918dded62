#include "src/cli/cli.h"

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "src/core/cluster_tools.h"
#include "src/core/cluster_workspace.h"
#include "src/core/floc.h"
#include "src/core/predict.h"
#include "src/core/simd_dispatch.h"
#include "src/data/cluster_io.h"
#include "src/data/matrix_io.h"
#include "src/data/microarray_synth.h"
#include "src/data/movielens_synth.h"
#include "src/data/synthetic.h"
#include "src/eval/metrics.h"
#include "src/eval/table.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/session/mining_session.h"
#include "src/util/flags.h"

namespace deltaclus {

namespace {

constexpr const char* kUsage = R"(deltaclus_cli <command> [flags]

commands:
  generate  synthesize a data set
            --kind=synthetic|movielens|microarray  (default synthetic)
            --rows N --cols N --clusters N --noise S --missing F
            --volume-mean V --volume-variance V --seed S
            --out matrix.csv [--truth-out clusters.txt]
  mine      run FLOC on a CSV or .dcm matrix
            --input matrix.csv --k N [--alpha A] [--target-residue R]
            [--min-rows N] [--min-cols N] [--max-overlap F]
            [--ordering fixed|random|weighted] [--paper-mode]
            [--refine N] [--reseed N] [--threads N] [--seed S]
            [--dedupe F] --out clusters.txt
            session control (see DESIGN.md, "The session layer"):
            [--deadline-s S] [--max-iterations N]
            [--checkpoint ckpt.dcs] [--resume ckpt.dcs]
            [--session-status[=status.json]]
            --deadline-s and --max-iterations bound the run by wall
            clock or total Phase-2 iterations (0 = unbounded); a
            budget-stopped run still reports the best clustering found
            so far, with stopped_reason set in the perf report.
            --checkpoint writes a resumable .dcs session
            snapshot when a budget stops the run; --resume continues
            one, and the resumed run's output is byte-identical to the
            uninterrupted run's. --session-status prints the final
            session status as JSON (with =PATH, writes it; feed to
            tools/dcstat.py).
            --threads N sizes the execution engine (default 1; 0 = all
            hardware threads; results are bit-identical at any count).
            [--backend=mem|mmap] picks the matrix storage backend
            (default mem). mmap maps .dcm inputs directly; text inputs
            are compiled to an unlinked temporary .dcm first. Results
            are bit-identical across backends.
            [--simd=auto|off] picks the gain-kernel dispatch (default
            auto = best ISA the CPU reports, e.g. AVX2; off pins the
            scalar reference kernels). Results are bit-identical
            either way.
            observability (see docs/OBSERVABILITY.md):
            [--telemetry off|summary|full] [--telemetry-out run.jsonl]
            [--trace-out trace.json] [--metrics-out metrics.json]
            [--perf-report[=report.json]]
            --perf-report without a value prints the per-phase
            attribution table; with =PATH it writes the report JSON
            (feed it to tools/dcstat.py).
  stats     summarize a clustering
            --input matrix.csv --clusters clusters.txt
            [--truth truth.txt] [--backend=mem|mmap] [--simd=auto|off]
  impute    fill missing entries from a clustering
            --input matrix.csv --clusters clusters.txt --out imputed.csv
            [--combine best|weighted] [--backend=mem|mmap]
            [--simd=auto|off]
  holdout   hold-out prediction evaluation
            --input matrix.csv --clusters clusters.txt
            [--fraction F] [--seed S] [--combine best|weighted]
            [--backend=mem|mmap] [--simd=auto|off]
  help      print this message

Matrices are dense CSV with "NA" (or empty) for missing entries, or
.dcm binary plane images (tools/dcm_convert); formats are auto-detected.
)";

int UsageError(std::ostream& err, const std::string& message) {
  err << "error: " << message << "\n\n" << kUsage;
  return 1;
}

// Storage-backend selection: --backend, default the in-memory backend.
// A malformed value is a usage error. Returns 0 and sets *backend on
// success.
int ResolveBackend(FlagParser& flags, std::ostream& err,
                   MatrixBackend* backend) {
  std::string selected = flags.StringOr("backend", "mem");
  if (selected == "mem") {
    *backend = MatrixBackend::kMem;
  } else if (selected == "mmap") {
    *backend = MatrixBackend::kMmap;
  } else {
    return UsageError(err, "unknown --backend '" + selected +
                               "' (expected mem|mmap)");
  }
  return 0;
}

// SIMD kernel dispatch: --simd, default auto. `auto` picks the best
// ISA the CPU reports; `off` pins the scalar reference kernels.
// Result-neutral either way (the SIMD kernels are bit-identical to
// scalar by the LaneAcc contract), so like --threads and --backend
// this never enters the config fingerprint.
int ResolveSimd(FlagParser& flags, std::ostream& err) {
  std::string selected = flags.StringOr("simd", "auto");
  if (selected == "auto") {
    SetSimdMode(SimdMode::kAuto);
  } else if (selected == "off") {
    SetSimdMode(SimdMode::kOff);
  } else {
    return UsageError(err,
                      "unknown --simd '" + selected + "' (expected auto|off)");
  }
  return 0;
}

// Budget/threads-style numeric settings resolve through this one
// checked parser instead of per-flag copies: --<flag> if given, else
// `def`. Accepted values are finite non-negative numbers; `integer`
// additionally rejects fractional values (thread counts, iteration
// caps). A bad value exits 2 naming the flag. Returns 0 and stores
// into *value on success.
int ParseSizeFlag(FlagParser& flags, const std::string& flag, bool integer,
                  double def, double* value, std::ostream& err) {
  *value = def;
  std::optional<std::string> raw = flags.GetString(flag);
  if (!raw) return 0;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(raw->c_str(), &end);
  if (end == raw->c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v) || v < 0.0 || (integer && v != std::floor(v))) {
    err << "error: --" << flag << " is not a non-negative "
        << (integer ? "integer" : "number") << ": " << *raw << "\n";
    return 2;
  }
  *value = v;
  return 0;
}

// The directory that would receive a file written to `path`.
std::string ParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

// Preflight checks: fail fast with exit 2 *before* any expensive work
// when an input path cannot be read or an output path cannot receive a
// file, naming the offending path -- instead of aborting mid-run.
int RequireReadable(const std::string& flag, const std::string& path,
                    std::ostream& err) {
  if (::access(path.c_str(), R_OK) == 0) return 0;
  err << "error: cannot read --" << flag << " '" << path << "'\n";
  return 2;
}

int RequireWritable(const std::string& flag, const std::string& path,
                    std::ostream& err) {
  if (path.empty()) return 0;
  if (::access(path.c_str(), F_OK) == 0) {
    if (::access(path.c_str(), W_OK) == 0) return 0;
    err << "error: cannot write --" << flag << " '" << path << "'\n";
    return 2;
  }
  std::string parent = ParentDir(path);
  if (::access(parent.c_str(), W_OK | X_OK) == 0) return 0;
  err << "error: cannot write --" << flag << " '" << path
      << "': directory '" << parent << "' is missing or not writable\n";
  return 2;
}

// Validates that every provided flag was consumed and no parse errors
// accumulated. Returns 0 on success.
int FinishFlags(FlagParser& flags, std::ostream& err) {
  for (const std::string& problem : flags.errors()) {
    err << "error: " << problem << "\n";
  }
  std::vector<std::string> unclaimed = flags.Unclaimed();
  for (const std::string& flag : unclaimed) {
    err << "error: unknown flag " << flag << "\n";
  }
  return (flags.errors().empty() && unclaimed.empty()) ? 0 : 1;
}

int CmdGenerate(FlagParser& flags, std::ostream& out, std::ostream& err) {
  std::string kind = flags.StringOr("kind", "synthetic");
  std::string out_path = flags.StringOr("out", "");
  std::string truth_path = flags.StringOr("truth-out", "");
  uint64_t seed = static_cast<uint64_t>(flags.IntOr("seed", 1));

  DataMatrix matrix(0, 0);
  std::vector<Cluster> truth;
  if (kind == "synthetic") {
    SyntheticConfig config;
    config.rows = static_cast<size_t>(flags.IntOr("rows", 1000));
    config.cols = static_cast<size_t>(flags.IntOr("cols", 50));
    config.num_clusters = static_cast<size_t>(flags.IntOr("clusters", 20));
    config.noise_stddev = flags.DoubleOr("noise", 2.0);
    config.missing_fraction = flags.DoubleOr("missing", 0.0);
    config.volume_mean = flags.DoubleOr("volume-mean", 0.0);
    config.volume_variance = flags.DoubleOr("volume-variance", 0.0);
    config.seed = seed;
    SyntheticDataset data = GenerateSynthetic(config);
    matrix = std::move(data.matrix);
    truth = std::move(data.embedded);
  } else if (kind == "movielens") {
    MovieLensSynthConfig config;
    config.users = static_cast<size_t>(flags.IntOr("rows", 943));
    config.movies = static_cast<size_t>(flags.IntOr("cols", 1682));
    config.num_groups = static_cast<size_t>(flags.IntOr("clusters", 10));
    config.seed = seed;
    MovieLensSynthDataset data = GenerateMovieLens(config);
    matrix = std::move(data.matrix);
    truth = std::move(data.planted_groups);
  } else if (kind == "microarray") {
    MicroarraySynthConfig config;
    config.genes = static_cast<size_t>(flags.IntOr("rows", 2884));
    config.conditions = static_cast<size_t>(flags.IntOr("cols", 17));
    config.num_blocks = static_cast<size_t>(flags.IntOr("clusters", 30));
    config.seed = seed;
    MicroarraySynthDataset data = GenerateMicroarray(config);
    matrix = std::move(data.matrix);
    truth = std::move(data.planted_blocks);
  } else {
    return UsageError(err, "unknown --kind '" + kind + "'");
  }
  if (int rc = FinishFlags(flags, err)) return rc;
  if (int rc = RequireWritable("out", out_path, err)) return rc;
  if (int rc = RequireWritable("truth-out", truth_path, err)) return rc;

  try {
    if (out_path.empty()) {
      WriteCsv(matrix, out);
    } else {
      WriteCsvFile(matrix, out_path);
      out << "wrote " << matrix.rows() << "x" << matrix.cols() << " matrix ("
          << matrix.NumSpecified() << " specified) to " << out_path << "\n";
    }
    if (!truth_path.empty()) {
      WriteClustersFile(truth, truth_path);
      out << "wrote " << truth.size() << " planted clusters to " << truth_path
          << "\n";
    }
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

int CmdMine(FlagParser& flags, std::ostream& out, std::ostream& err) {
  auto input = flags.GetString("input");
  auto out_path = flags.GetString("out");
  if (!input) return UsageError(err, "mine requires --input");

  FlocConfig config;
  config.num_clusters = static_cast<size_t>(flags.IntOr("k", 10));
  config.constraints.alpha = flags.DoubleOr("alpha", 0.0);
  config.target_residue = flags.DoubleOr("target-residue", 0.0);
  config.constraints.min_rows =
      static_cast<size_t>(flags.IntOr("min-rows", 2));
  config.constraints.min_cols =
      static_cast<size_t>(flags.IntOr("min-cols", 2));
  config.constraints.max_overlap = flags.DoubleOr("max-overlap", 1.0);
  config.seeding.row_probability = flags.DoubleOr("row-probability", 0.05);
  config.seeding.col_probability = flags.DoubleOr("col-probability", 0.2);
  config.refine_passes = static_cast<size_t>(flags.IntOr("refine", 2));
  config.reseed_rounds = static_cast<size_t>(flags.IntOr("reseed", 2));
  // Thread count, default serial. 0 means
  // std::thread::hardware_concurrency(); either way results are
  // bit-identical (the engine shards work independently of the count).
  double threads = 1;
  if (int rc = ParseSizeFlag(flags, "threads", /*integer=*/true, 1, &threads,
                             err)) {
    return rc;
  }
  config.threads = static_cast<int>(threads);
  // Session budgets (DESIGN.md, "The session layer"), through the same
  // checked parser. 0 means unbounded.
  double deadline_s = 0.0;
  double max_iterations = 0.0;
  if (int rc = ParseSizeFlag(flags, "deadline-s", /*integer=*/false, 0.0,
                             &deadline_s, err)) {
    return rc;
  }
  if (int rc = ParseSizeFlag(flags, "max-iterations", /*integer=*/true, 0.0,
                             &max_iterations, err)) {
    return rc;
  }
  config.deadline_seconds = deadline_s;
  config.max_total_iterations = static_cast<size_t>(max_iterations);
  std::string checkpoint_path = flags.StringOr("checkpoint", "");
  std::string resume_path = flags.StringOr("resume", "");
  config.rng_seed = static_cast<uint64_t>(flags.IntOr("seed", 1));
  // Paper-literal mode: stale decisions and forced negative actions.
  if (flags.GetBool("paper-mode")) {
    config.fresh_gains_at_apply = false;
    config.perform_negative_actions = true;
  } else {
    config.perform_negative_actions = false;
  }
  std::string ordering = flags.StringOr("ordering", "weighted");
  if (ordering == "fixed") {
    config.ordering = ActionOrdering::kFixed;
  } else if (ordering == "random") {
    config.ordering = ActionOrdering::kRandom;
  } else if (ordering == "weighted") {
    config.ordering = ActionOrdering::kWeightedRandom;
  } else {
    return UsageError(err, "unknown --ordering '" + ordering + "'");
  }
  double dedupe = flags.DoubleOr("dedupe", 1.0);

  // Observability surface: run telemetry, trace spans, and metrics.
  std::string telemetry_raw = flags.StringOr("telemetry", "off");
  auto telemetry_level = obs::ParseTelemetryLevel(telemetry_raw);
  if (!telemetry_level) {
    return UsageError(err, "unknown --telemetry '" + telemetry_raw + "'");
  }
  config.telemetry = *telemetry_level;
  std::string telemetry_out = flags.StringOr("telemetry-out", "");
  std::string trace_out = flags.StringOr("trace-out", "");
  std::string metrics_out = flags.StringOr("metrics-out", "");
  // A bare --perf-report prints the text table; =PATH writes JSON.
  bool perf_report_requested = flags.GetBool("perf-report");
  std::string perf_report_path = flags.StringOr("perf-report", "");
  // Same shape for --session-status: bare prints the JSON, =PATH writes.
  bool session_status_requested = flags.GetBool("session-status");
  std::string session_status_path = flags.StringOr("session-status", "");
  MatrixBackend backend = MatrixBackend::kMem;
  if (int rc = ResolveBackend(flags, err, &backend)) return rc;
  if (int rc = ResolveSimd(flags, err)) return rc;
  if (int rc = FinishFlags(flags, err)) return rc;

  // Path preflights, before any mining work starts.
  if (int rc = RequireReadable("input", *input, err)) return rc;
  if (out_path) {
    if (int rc = RequireWritable("out", *out_path, err)) return rc;
  }
  if (int rc = RequireWritable("telemetry-out", telemetry_out, err)) return rc;
  if (int rc = RequireWritable("trace-out", trace_out, err)) return rc;
  if (int rc = RequireWritable("metrics-out", metrics_out, err)) return rc;
  if (int rc = RequireWritable("perf-report", perf_report_path, err)) {
    return rc;
  }
  if (int rc = RequireWritable("checkpoint", checkpoint_path, err)) return rc;
  if (int rc = RequireWritable("session-status", session_status_path, err)) {
    return rc;
  }
  if (!resume_path.empty()) {
    if (int rc = RequireReadable("resume", resume_path, err)) return rc;
  }

  std::ofstream telemetry_stream;
  std::optional<obs::JsonlTelemetrySink> telemetry_sink;
  if (!telemetry_out.empty()) {
    // Asking for a stream implies collecting: bump kOff to kSummary.
    if (config.telemetry == obs::TelemetryLevel::kOff) {
      config.telemetry = obs::TelemetryLevel::kSummary;
    }
    telemetry_stream.open(telemetry_out);
    if (!telemetry_stream) {
      err << "error: cannot open --telemetry-out " << telemetry_out << "\n";
      return 2;
    }
    telemetry_sink.emplace(telemetry_stream);
    config.telemetry_sink = &*telemetry_sink;
  }
  if (!trace_out.empty()) obs::TraceRecorder::SetEnabled(true);
  if (!metrics_out.empty() || perf_report_requested) {
    obs::MetricsRegistry::SetEnabled(true);
  }

  DataMatrix matrix(0, 0);
  try {
    matrix = ReadMatrixFile(*input, backend);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
  if (matrix.rows() == 0 || matrix.cols() == 0) {
    err << "error: empty matrix in " << *input << " (" << matrix.rows()
        << "x" << matrix.cols() << "): nothing to mine\n";
    return 2;
  }
  out << "mining " << matrix.rows() << "x" << matrix.cols() << " matrix ("
      << 100.0 * matrix.Density() << "% dense, backend "
      << matrix.BackendName() << "), k = " << config.num_clusters << "\n";
  // A cluster's packed pane addresses at most kMaxPaneCols columns, so on
  // a wider matrix clusters are bounded there instead of the run refused.
  if (matrix.cols() > kMaxPaneCols) {
    config.constraints.max_cols = kMaxPaneCols;
    out << "clusters bounded at " << kMaxPaneCols
        << " columns, the widest a packed pane can address\n";
  }

  // Drive mining through the session layer so budgets can stop the run
  // at a step boundary and --checkpoint/--resume work; with no budgets
  // set this loop is exactly Floc::Run.
  FlocResult result;
  session::SessionStatus final_status;
  try {
    Floc floc(config);
    std::unique_ptr<session::MiningSession> session;
    if (resume_path.empty()) {
      session = floc.StartSession(matrix);
    } else {
      session = floc.ResumeSession(matrix, resume_path);
      out << "resumed session from " << resume_path << "\n";
    }
    while (session->Step()) {
    }
    final_status = session->Status();
    if (session->stop_reason() != session::StopReason::kNone) {
      out << "stopped early: "
          << session::StopReasonName(session->stop_reason())
          << " (result is the best clustering found so far)\n";
      if (!checkpoint_path.empty()) {
        session->Checkpoint(checkpoint_path);
        out << "wrote session checkpoint to " << checkpoint_path << "\n";
      }
    } else if (!checkpoint_path.empty()) {
      out << "run completed; nothing to resume, no checkpoint written to "
          << checkpoint_path << "\n";
    }
    result = session->Finish();
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
  if (session_status_requested) {
    if (session_status_path.empty()) {
      out << final_status.Json() << "\n";
    } else {
      std::ofstream status_stream(session_status_path);
      status_stream << final_status.Json() << "\n";
      status_stream.flush();
      if (!status_stream) {
        err << "error: cannot write --session-status " << session_status_path
            << "\n";
        return 2;
      }
      out << "wrote session status to " << session_status_path << "\n";
    }
  }

  if (!trace_out.empty()) {
    if (obs::TraceRecorder::Global().WriteChromeTraceFile(trace_out)) {
      out << "wrote trace (" << obs::TraceRecorder::Global().size()
          << " spans) to " << trace_out << "\n";
    } else {
      err << "error: cannot write --trace-out " << trace_out << "\n";
      return 2;
    }
  }
  if (!metrics_out.empty()) {
    if (obs::MetricsRegistry::Global().WriteJsonFile(metrics_out)) {
      out << "wrote metrics snapshot to " << metrics_out << "\n";
    } else {
      err << "error: cannot write --metrics-out " << metrics_out << "\n";
      return 2;
    }
  }
  if (perf_report_requested) {
    if (perf_report_path.empty()) {
      result.perf.PrintTable(out);
    } else if (result.perf.WriteJsonFile(perf_report_path)) {
      out << "wrote perf report to " << perf_report_path << "\n";
    } else {
      err << "error: cannot write --perf-report " << perf_report_path << "\n";
      return 2;
    }
  }
  if (telemetry_sink && !telemetry_sink->ok()) {
    // A sink failure degrades the JSONL stream but never the run.
    err << "warning: telemetry sink reported a write failure; " << telemetry_out
        << " is incomplete\n";
  }
  if (result.telemetry.level != obs::TelemetryLevel::kOff) {
    const obs::RunTelemetry& tel = result.telemetry;
    auto wall = [&result](const char* phase) {
      for (const obs::PerfPhase& p : result.perf.phases) {
        if (p.name == phase) return p.wall_seconds;
      }
      return 0.0;
    };
    out << "telemetry (" << obs::TelemetryLevelName(tel.level)
        << "): seeding " << wall("seeding") << " s, move phase "
        << wall("move_phase") << " s, refine " << wall("refine")
        << " s, reseed " << wall("reseed") << " s; "
        << tel.total_actions_applied << " actions applied, best iteration "
        << tel.best_iteration << "\n";
    if (!telemetry_out.empty()) {
      // A resumed session streams only the iterations it ran, so this
      // counts events, not the run's iterations.
      out << "wrote telemetry JSONL (" << tel.iteration_log.size()
          << " iteration events) to " << telemetry_out << "\n";
    }
  }
  std::vector<Cluster> clusters = result.clusters;
  if (dedupe < 1.0) {
    clusters = DeduplicateClusters(matrix, clusters, dedupe);
    out << "deduplicated " << result.clusters.size() << " -> "
        << clusters.size() << " clusters\n";
  }

  out << "FLOC: " << result.iterations << " iterations, average residue "
      << result.average_residue << ", " << result.elapsed_seconds << " s\n";
  TextTable table({"cluster", "rows", "cols", "volume", "occupancy",
                   "residue"});
  std::vector<ClusterSummary> summaries = SummarizeClusters(matrix, clusters);
  for (const ClusterSummary& s : summaries) {
    table.AddRow({TextTable::Int(s.index), TextTable::Int(s.rows),
                  TextTable::Int(s.cols), TextTable::Int(s.volume),
                  TextTable::Num(s.occupancy, 2),
                  TextTable::Num(s.residue, 3)});
  }
  table.Print(out);

  if (out_path) {
    WriteClustersFile(clusters, *out_path);
    out << "wrote " << clusters.size() << " clusters to " << *out_path
        << "\n";
  }
  return 0;
}

int CmdStats(FlagParser& flags, std::ostream& out, std::ostream& err) {
  auto input = flags.GetString("input");
  auto clusters_path = flags.GetString("clusters");
  auto truth_path = flags.GetString("truth");
  if (!input || !clusters_path) {
    return UsageError(err, "stats requires --input and --clusters");
  }
  MatrixBackend backend = MatrixBackend::kMem;
  if (int rc = ResolveBackend(flags, err, &backend)) return rc;
  if (int rc = ResolveSimd(flags, err)) return rc;
  if (int rc = FinishFlags(flags, err)) return rc;
  if (int rc = RequireReadable("input", *input, err)) return rc;
  if (int rc = RequireReadable("clusters", *clusters_path, err)) return rc;

  try {
    DataMatrix matrix = ReadMatrixFile(*input, backend);
    std::vector<Cluster> clusters =
        ReadClustersFile(*clusters_path, matrix.rows(), matrix.cols());
    TextTable table({"cluster", "rows", "cols", "volume", "occupancy",
                     "residue", "diameter"});
    for (const ClusterSummary& s : SummarizeClusters(matrix, clusters)) {
      table.AddRow({TextTable::Int(s.index), TextTable::Int(s.rows),
                    TextTable::Int(s.cols), TextTable::Int(s.volume),
                    TextTable::Num(s.occupancy, 2),
                    TextTable::Num(s.residue, 3),
                    TextTable::Num(s.diameter, 1)});
    }
    table.Print(out);
    out << "aggregate volume: " << AggregateVolume(matrix, clusters) << "\n";
    if (truth_path) {
      std::vector<Cluster> truth =
          ReadClustersFile(*truth_path, matrix.rows(), matrix.cols());
      MatchQuality q = EntryRecallPrecision(matrix, truth, clusters);
      out << "vs truth: recall " << q.recall << ", precision " << q.precision
          << ", F1 " << q.F1() << "\n";
    }
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

PredictCombine ParseCombine(const std::string& raw, bool* ok) {
  *ok = true;
  if (raw == "best") return PredictCombine::kBestResidue;
  if (raw == "weighted") return PredictCombine::kWeightedAverage;
  *ok = false;
  return PredictCombine::kBestResidue;
}

int CmdImpute(FlagParser& flags, std::ostream& out, std::ostream& err) {
  auto input = flags.GetString("input");
  auto clusters_path = flags.GetString("clusters");
  auto out_path = flags.GetString("out");
  std::string combine_raw = flags.StringOr("combine", "best");
  if (!input || !clusters_path || !out_path) {
    return UsageError(err, "impute requires --input, --clusters and --out");
  }
  bool ok = false;
  PredictCombine combine = ParseCombine(combine_raw, &ok);
  if (!ok) return UsageError(err, "unknown --combine '" + combine_raw + "'");
  MatrixBackend backend = MatrixBackend::kMem;
  if (int rc = ResolveBackend(flags, err, &backend)) return rc;
  if (int rc = ResolveSimd(flags, err)) return rc;
  if (int rc = FinishFlags(flags, err)) return rc;
  if (int rc = RequireReadable("input", *input, err)) return rc;
  if (int rc = RequireReadable("clusters", *clusters_path, err)) return rc;
  if (int rc = RequireWritable("out", *out_path, err)) return rc;

  try {
    DataMatrix matrix = ReadMatrixFile(*input, backend);
    std::vector<Cluster> clusters =
        ReadClustersFile(*clusters_path, matrix.rows(), matrix.cols());
    ClusterPredictor predictor(matrix, clusters);
    DataMatrix imputed = predictor.Impute(combine);
    WriteCsvFile(imputed, *out_path);
    out << "imputed " << (imputed.NumSpecified() - matrix.NumSpecified())
        << " entries; wrote " << *out_path << "\n";
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

int CmdHoldout(FlagParser& flags, std::ostream& out, std::ostream& err) {
  auto input = flags.GetString("input");
  auto clusters_path = flags.GetString("clusters");
  double fraction = flags.DoubleOr("fraction", 0.1);
  uint64_t seed = static_cast<uint64_t>(flags.IntOr("seed", 1));
  std::string combine_raw = flags.StringOr("combine", "best");
  if (!input || !clusters_path) {
    return UsageError(err, "holdout requires --input and --clusters");
  }
  bool ok = false;
  PredictCombine combine = ParseCombine(combine_raw, &ok);
  if (!ok) return UsageError(err, "unknown --combine '" + combine_raw + "'");
  MatrixBackend backend = MatrixBackend::kMem;
  if (int rc = ResolveBackend(flags, err, &backend)) return rc;
  if (int rc = ResolveSimd(flags, err)) return rc;
  if (int rc = FinishFlags(flags, err)) return rc;
  if (int rc = RequireReadable("input", *input, err)) return rc;
  if (int rc = RequireReadable("clusters", *clusters_path, err)) return rc;

  try {
    DataMatrix matrix = ReadMatrixFile(*input, backend);
    std::vector<Cluster> clusters =
        ReadClustersFile(*clusters_path, matrix.rows(), matrix.cols());
    ClusterPredictor predictor(matrix, clusters);
    HoldoutResult result = predictor.EvaluateHoldout(fraction, seed, combine);
    out << "held out " << result.held_out << " entries, predicted "
        << result.predicted << " (coverage " << result.coverage() << ")\n";
    out << "MAE " << result.mae << ", RMSE " << result.rmse << "\n";
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  if (args.empty()) {
    err << kUsage;
    return 1;
  }
  const std::string& command = args[0];
  FlagParser flags(std::vector<std::string>(args.begin() + 1, args.end()));
  if (command == "help" || flags.GetBool("help")) {
    out << kUsage;
    return 0;
  }
  if (command == "generate") return CmdGenerate(flags, out, err);
  if (command == "mine") return CmdMine(flags, out, err);
  if (command == "stats") return CmdStats(flags, out, err);
  if (command == "impute") return CmdImpute(flags, out, err);
  if (command == "holdout") return CmdHoldout(flags, out, err);
  return UsageError(err, "unknown command '" + command + "'");
}

}  // namespace deltaclus
