// Micro-benchmarks for the core kernels: residue evaluation, virtual
// toggles (the gain kernel), incremental vs full-rebuild ClusterStats,
// seed generation, and the telemetry overhead guard (FLOC with telemetry
// off vs full; docs/OBSERVABILITY.md quotes the acceptance bound). These
// quantify the design choices DESIGN.md calls out: stats-backed residue
// passes vs naive recomputation, and virtual-toggle gain evaluation vs
// copy-then-toggle.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/cluster_stats.h"
#include "src/core/cluster_workspace.h"
#include "src/core/constraints.h"
#include "src/core/floc.h"
#include "src/core/floc_phases.h"
#include "src/core/residue.h"
#include "src/core/seeding.h"
#include "src/data/synthetic.h"
#include "src/engine/thread_pool.h"
#include "src/util/rng.h"

namespace deltaclus {
namespace {

SyntheticDataset MakeData(size_t rows, size_t cols,
                          double missing_fraction = 0.0) {
  SyntheticConfig config;
  config.rows = rows;
  config.cols = cols;
  config.num_clusters = 10;
  config.noise_stddev = 2.0;
  config.missing_fraction = missing_fraction;
  config.seed = 5;
  return GenerateSynthetic(config);
}

Cluster MakeCluster(size_t rows, size_t cols, size_t n_rows, size_t n_cols) {
  Rng rng(77);
  return Cluster::FromMembers(rows, cols,
                              rng.SampleWithoutReplacement(rows, n_rows),
                              rng.SampleWithoutReplacement(cols, n_cols));
}

void BM_ResidueNaive(benchmark::State& state) {
  size_t n = state.range(0);
  SyntheticDataset data = MakeData(1000, 100);
  Cluster c = MakeCluster(1000, 100, n, 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ClusterResidueNaive(data.matrix, c));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_ResidueNaive)->Arg(16)->Arg(64)->Arg(256)->Complexity();

void BM_ResidueEngine(benchmark::State& state) {
  // One full lane-split scan per iteration: the residue cache is dropped
  // each time (the pane stays fresh), so this times the scan, not a hit.
  size_t n = state.range(0);
  SyntheticDataset data = MakeData(1000, 100);
  ClusterWorkspace ws(data.matrix, MakeCluster(1000, 100, n, 20));
  ResidueEngine engine;
  for (auto _ : state) {
    ws.InvalidateResidue();
    benchmark::DoNotOptimize(engine.Residue(ws));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_ResidueEngine)->Arg(16)->Arg(64)->Arg(256)->Complexity();

void BM_GainVirtualToggleRow(benchmark::State& state) {
  size_t n = state.range(0);
  SyntheticDataset data = MakeData(1000, 100);
  ClusterWorkspace ws(data.matrix, MakeCluster(1000, 100, n, 20));
  ResidueEngine engine;
  size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.ResidueAfterToggleRow(ws, row % 1000));
    ++row;
  }
}
BENCHMARK(BM_GainVirtualToggleRow)->Arg(16)->Arg(64)->Arg(256);

void BM_GainCopyToggleRow(benchmark::State& state) {
  // The alternative the engine's virtual toggles avoid: copy the
  // workspace, apply the toggle (patching the copy's pane), rescan.
  size_t n = state.range(0);
  SyntheticDataset data = MakeData(1000, 100);
  ClusterWorkspace ws(data.matrix, MakeCluster(1000, 100, n, 20));
  ws.EnsurePane();
  ResidueEngine engine;
  size_t row = 0;
  for (auto _ : state) {
    ClusterWorkspace copy = ws;
    copy.ToggleRow(row % 1000);
    benchmark::DoNotOptimize(engine.Residue(copy));
    ++row;
  }
}
BENCHMARK(BM_GainCopyToggleRow)->Arg(16)->Arg(64)->Arg(256);

// Gain-evaluation kernels over a standing cluster -- the data-plane hot
// path the dual-layout refactor targets. The workspace caches the base
// residue, so each gain evaluation costs one after-toggle scan instead
// of a full rescan plus an after-toggle scan, and the column toggle on
// the wide matrix reads the column-major plane with stride-1 access.
// Tall (10000x100) stresses row toggles; wide (100x10000) column
// toggles. items_per_second in BENCH_micro_kernels.json is gain
// evaluations per second.
void BM_GainEvalRowToggleTall(benchmark::State& state) {
  SyntheticDataset data = MakeData(10000, 100);
  ClusterWorkspace ws(data.matrix, MakeCluster(10000, 100, 600, 60));
  ResidueEngine engine;
  size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.GainToggleRow(ws, row % 10000));
    ++row;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GainEvalRowToggleTall)->Unit(benchmark::kMicrosecond);

void BM_GainEvalColToggleWide(benchmark::State& state) {
  SyntheticDataset data = MakeData(100, 10000);
  ClusterWorkspace ws(data.matrix, MakeCluster(100, 10000, 60, 600));
  ResidueEngine engine;
  size_t col = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.GainToggleCol(ws, col % 10000));
    ++col;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GainEvalColToggleWide)->Unit(benchmark::kMicrosecond);

// Sparse twins of the two gain-eval kernels (30% missing entries): these
// exercise the run passes (rows with holes, scanned as their
// specified-entry runs), whereas the dense variants above run almost
// entirely on the dense pass. Comparing the two pairs in
// BENCH_micro_kernels.json shows what the dense fast path still buys
// over a run.
void BM_GainEvalRowToggleTallSparse(benchmark::State& state) {
  SyntheticDataset data = MakeData(10000, 100, 0.3);
  ClusterWorkspace ws(data.matrix, MakeCluster(10000, 100, 600, 60));
  ResidueEngine engine;
  size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.GainToggleRow(ws, row % 10000));
    ++row;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GainEvalRowToggleTallSparse)->Unit(benchmark::kMicrosecond);

void BM_GainEvalColToggleWideSparse(benchmark::State& state) {
  SyntheticDataset data = MakeData(100, 10000, 0.3);
  ClusterWorkspace ws(data.matrix, MakeCluster(100, 10000, 60, 600));
  ResidueEngine engine;
  size_t col = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.GainToggleCol(ws, col % 10000));
    ++col;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GainEvalColToggleWideSparse)->Unit(benchmark::kMicrosecond);

// The shape that dominates the second half of a paper-literal mining
// run on holey data: clusters shrunk to a few hundred rows over two
// columns. A 1500x100 matrix at 30% missing, a 250x2 cluster: about
// half its rows hold a hole, and each row is a run of 0-2 entries, so
// per-row overhead (not per-entry throughput) is what this measures --
// the 600x60 twins above hide it.
void BM_GainEvalRowToggleSkinnySparse(benchmark::State& state) {
  SyntheticDataset data = MakeData(1500, 100, 0.3);
  ClusterWorkspace ws(data.matrix, MakeCluster(1500, 100, 250, 2));
  ResidueEngine engine;
  size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.GainToggleRow(ws, row % 1500));
    ++row;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GainEvalRowToggleSkinnySparse)->Unit(benchmark::kMicrosecond);

// Applied-toggle twins: each iteration actually commits a membership
// toggle (and reverts it, so the cluster shape is steady-state) before
// re-evaluating a gain. This is the FLOC inner-loop sequence -- apply,
// then re-probe -- so the pane maintenance cost sits on the measured
// path: a workspace that patches pays one row splice / column shift,
// while one that rebuilds pays the full O(|I| x |J|) gather per apply.
void BM_GainApplyRowToggleTall(benchmark::State& state) {
  SyntheticDataset data = MakeData(10000, 100);
  ClusterWorkspace ws(data.matrix, MakeCluster(10000, 100, 600, 60));
  ResidueEngine engine;
  size_t row = 0;
  for (auto _ : state) {
    ws.ToggleRow(row);
    benchmark::DoNotOptimize(engine.GainToggleRow(ws, row + 1));
    ws.ToggleRow(row);
    benchmark::DoNotOptimize(engine.GainToggleRow(ws, row + 1));
    row = (row + 1) % 9000;
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_GainApplyRowToggleTall)->Unit(benchmark::kMicrosecond);

void BM_GainApplyColToggleWide(benchmark::State& state) {
  SyntheticDataset data = MakeData(100, 10000);
  ClusterWorkspace ws(data.matrix, MakeCluster(100, 10000, 60, 600));
  ResidueEngine engine;
  size_t col = 0;
  for (auto _ : state) {
    ws.ToggleCol(col);
    benchmark::DoNotOptimize(engine.GainToggleCol(ws, col + 1));
    ws.ToggleCol(col);
    benchmark::DoNotOptimize(engine.GainToggleCol(ws, col + 1));
    col = (col + 1) % 9000;
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_GainApplyColToggleWide)->Unit(benchmark::kMicrosecond);

// Incremental pane patching vs the full gather rebuild it replaces: the
// identical single-toggle sequence, once with the pane kept fresh (each
// toggle is an O(|J|) / O(|I|) in-place patch, with the occasional
// compacting rebuild when slack runs out) and once with the pane
// deliberately staled before every EnsurePane (the pre-patching
// behaviour: every toggle pays the O(|I| x |J|) gather).
void BM_PaneToggleRowPatch(benchmark::State& state) {
  SyntheticDataset data = MakeData(10000, 100);
  ClusterWorkspace ws(data.matrix, MakeCluster(10000, 100, 600, 60));
  ws.EnsurePane();
  size_t row = 0;
  for (auto _ : state) {
    ws.ToggleRow(row % 10000);
    benchmark::DoNotOptimize(&ws.EnsurePane());
    ++row;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PaneToggleRowPatch)->Unit(benchmark::kMicrosecond);

void BM_PaneToggleRowRebuild(benchmark::State& state) {
  SyntheticDataset data = MakeData(10000, 100);
  ClusterWorkspace ws(data.matrix, MakeCluster(10000, 100, 600, 60));
  ws.EnsurePane();
  size_t row = 0;
  for (auto _ : state) {
    ws.ToggleRow(row % 10000);
    ws.InvalidatePane();
    benchmark::DoNotOptimize(&ws.EnsurePane());
    ++row;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PaneToggleRowRebuild)->Unit(benchmark::kMicrosecond);

void BM_PaneToggleColPatch(benchmark::State& state) {
  SyntheticDataset data = MakeData(100, 10000);
  ClusterWorkspace ws(data.matrix, MakeCluster(100, 10000, 60, 600));
  ws.EnsurePane();
  size_t col = 0;
  for (auto _ : state) {
    ws.ToggleCol(col % 10000);
    benchmark::DoNotOptimize(&ws.EnsurePane());
    ++col;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PaneToggleColPatch)->Unit(benchmark::kMicrosecond);

void BM_PaneToggleColRebuild(benchmark::State& state) {
  SyntheticDataset data = MakeData(100, 10000);
  ClusterWorkspace ws(data.matrix, MakeCluster(100, 10000, 60, 600));
  ws.EnsurePane();
  size_t col = 0;
  for (auto _ : state) {
    ws.ToggleCol(col % 10000);
    ws.InvalidatePane();
    benchmark::DoNotOptimize(&ws.EnsurePane());
    ++col;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PaneToggleColRebuild)->Unit(benchmark::kMicrosecond);

void BM_StatsIncrementalToggle(benchmark::State& state) {
  SyntheticDataset data = MakeData(1000, 100);
  ClusterView view(data.matrix, MakeCluster(1000, 100, 64, 20));
  size_t row = 0;
  for (auto _ : state) {
    view.ToggleRow(row % 1000);
    benchmark::DoNotOptimize(view.stats().Volume());
    ++row;
  }
}
BENCHMARK(BM_StatsIncrementalToggle);

void BM_StatsFullRebuild(benchmark::State& state) {
  SyntheticDataset data = MakeData(1000, 100);
  Cluster c = MakeCluster(1000, 100, 64, 20);
  ClusterStats stats;
  for (auto _ : state) {
    stats.Build(data.matrix, c);
    benchmark::DoNotOptimize(stats.Volume());
  }
}
BENCHMARK(BM_StatsFullRebuild);

void BM_SeedGeneration(benchmark::State& state) {
  SyntheticDataset data = MakeData(3000, 100);
  SeedingConfig config;
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GenerateSeeds(data.matrix, config, state.range(0), rng));
  }
}
BENCHMARK(BM_SeedGeneration)->Arg(10)->Arg(100);

// The gain-determination sweep (Phase-2 step 1) on the persistent pool:
// one full determine pass over a 2000x100 matrix with 10 clusters. The
// pool lives across benchmark iterations -- exactly how Floc::Run reuses
// it across FLOC iterations -- so this measures the sweep itself, not
// thread spawn/teardown. Runs with the gain memo wired in, as Floc does:
// the clustering is static across benchmark iterations, so after the
// first sweep every evaluation is an epoch-valid cache hit -- the
// steady-state cost of re-sweeping unchanged clusters. The NoMemo
// variant below isolates the raw kernel cost.
// One determination sweep per iteration over ten 120x20 clusters of a
// 2000x100 matrix with `missing_fraction` of its entries missing, on
// state.range(0) threads, with or without the gain memo.
void RunGainDetermination(benchmark::State& state, double missing_fraction,
                          bool with_memo) {
  int threads = static_cast<int>(state.range(0));
  SyntheticDataset data = MakeData(2000, 100, missing_fraction);
  std::vector<ClusterWorkspace> views;
  std::vector<double> scores;
  ResidueEngine residue_engine;
  for (size_t c = 0; c < 10; ++c) {
    views.emplace_back(data.matrix, MakeCluster(2000, 100, 120, 20));
    scores.push_back(ObjectiveScore(residue_engine.Residue(views.back()),
                                    views.back().stats().Volume(), 0.0));
  }
  ConstraintTracker tracker(data.matrix, Constraints{});
  tracker.Rebuild(views);
  std::unique_ptr<engine::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<engine::ThreadPool>(threads);
  GainMemo memo;
  memo.Configure(data.matrix.rows(), data.matrix.cols(), views.size());
  GainDeterminer determiner(0.0, pool.get(), engine::kSerialCutoff,
                            with_memo ? &memo : nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        determiner.Determine(data.matrix, views, scores, tracker, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          (data.matrix.rows() + data.matrix.cols()));
}

void BM_GainDetermination(benchmark::State& state) {
  RunGainDetermination(state, 0.0, /*with_memo=*/true);
}
BENCHMARK(BM_GainDetermination)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The same sweep without the memo: every evaluation rescans, so this is
// the kernel-bound cost (what a first iteration or a fully-churned
// clustering pays).
void BM_GainDeterminationNoMemo(benchmark::State& state) {
  RunGainDetermination(state, 0.0, /*with_memo=*/false);
}
BENCHMARK(BM_GainDeterminationNoMemo)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Its sparse twin (30% missing): the row rescans run on the pane's
// holey-row runs, as on the paper-literal sparse workload.
void BM_GainDeterminationNoMemoSparse(benchmark::State& state) {
  RunGainDetermination(state, 0.3, /*with_memo=*/false);
}
BENCHMARK(BM_GainDeterminationNoMemoSparse)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_FlocSmall(benchmark::State& state) {
  SyntheticConfig config;
  config.rows = 200;
  config.cols = 30;
  config.num_clusters = 5;
  config.noise_stddev = 1.0;
  config.seed = 11;
  SyntheticDataset data = GenerateSynthetic(config);
  FlocConfig floc_config;
  floc_config.num_clusters = 5;
  floc_config.rng_seed = 13;
  for (auto _ : state) {
    Floc floc(floc_config);
    benchmark::DoNotOptimize(floc.Run(data.matrix));
  }
}
BENCHMARK(BM_FlocSmall)->Unit(benchmark::kMillisecond);

// Telemetry overhead guard: the same FLOC run with telemetry off and at
// kFull. The off path must stay within noise of the pre-telemetry
// baseline (the telemetry layer's design bound: < 2%); the full path
// quantifies what --telemetry=full costs. The *_4Threads pair runs the
// same mining on a 4-thread pool (shared across iterations, as a
// session shares it across runs), so the instrumentation is also
// measured where the parallel determination sweep and the pipelined
// apply sweep run.
SyntheticDataset TelemetryData() {
  SyntheticConfig config;
  config.rows = 300;
  config.cols = 40;
  config.num_clusters = 6;
  config.noise_stddev = 1.0;
  config.seed = 23;
  return GenerateSynthetic(config);
}

void RunTelemetryFloc(benchmark::State& state, obs::TelemetryLevel level,
                      int threads) {
  SyntheticDataset data = TelemetryData();
  FlocConfig config;
  config.num_clusters = 6;
  config.refine_passes = 1;
  config.reseed_rounds = 0;
  config.rng_seed = 29;
  config.telemetry = level;
  std::unique_ptr<engine::ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<engine::ThreadPool>(threads);
    config.pool = pool.get();
  }
  for (auto _ : state) {
    Floc floc(config);
    benchmark::DoNotOptimize(floc.Run(data.matrix));
  }
}

void BM_FlocTelemetryOff(benchmark::State& state) {
  RunTelemetryFloc(state, obs::TelemetryLevel::kOff, 1);
}
BENCHMARK(BM_FlocTelemetryOff)->Unit(benchmark::kMillisecond);

void BM_FlocTelemetryFull(benchmark::State& state) {
  RunTelemetryFloc(state, obs::TelemetryLevel::kFull, 1);
}
BENCHMARK(BM_FlocTelemetryFull)->Unit(benchmark::kMillisecond);

void BM_FlocTelemetryOff_4Threads(benchmark::State& state) {
  RunTelemetryFloc(state, obs::TelemetryLevel::kOff, 4);
}
BENCHMARK(BM_FlocTelemetryOff_4Threads)->Unit(benchmark::kMillisecond);

void BM_FlocTelemetryFull_4Threads(benchmark::State& state) {
  RunTelemetryFloc(state, obs::TelemetryLevel::kFull, 4);
}
BENCHMARK(BM_FlocTelemetryFull_4Threads)->Unit(benchmark::kMillisecond);

// Forwards to the normal console output while collecting one BENCH
// result row per reported run (iteration runs and aggregates alike).
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  explicit RecordingReporter(bench::BenchReport* report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      bench::BenchRow row = {
          {"benchmark", bench::Str(run.benchmark_name())},
          {"iterations", bench::Int(run.iterations)},
          {"real_time", bench::Num(run.GetAdjustedRealTime())},
          {"cpu_time", bench::Num(run.GetAdjustedCPUTime())},
          {"time_unit", bench::Str(GetTimeUnitString(run.time_unit))}};
      auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        row.push_back({"items_per_second", bench::Num(items->second)});
      }
      report_->AddResult(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchReport* report_;
};

}  // namespace
}  // namespace deltaclus

int main(int argc, char** argv) {
  using namespace deltaclus;  // NOLINT
  bench::BenchReport report("micro_kernels", argc, argv);
  // --quick and --json-out are ours; benchmark::Initialize tolerates the
  // leftovers as long as ReportUnrecognizedArguments is not called. In
  // quick mode only the telemetry-overhead pair runs (CI's use case).
  benchmark::Initialize(&argc, argv);
  if (report.quick()) {
    benchmark::SetBenchmarkFilter("BM_FlocTelemetry.*");
  }
  RecordingReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
