// Thread scaling of the FLOC execution engine (src/engine/): the same
// paper-literal run as bench_table2_3_scaling at 1/2/4/8 worker threads
// on the Table 2/3 matrix sizes, reporting wall time and throughput
// (items_per_second = iterations x (N + M) gain determinations per
// second). The determinism contract means every thread count produces
// the same clustering -- iteration counts are asserted equal across the
// sweep, so the speedup column compares identical work.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/floc.h"
#include "src/data/synthetic.h"
#include "src/eval/table.h"
#include "src/obs/metrics.h"
#include "src/obs/quantile_histogram.h"

using namespace deltaclus;  // NOLINT

namespace {

struct MatrixSpec {
  size_t rows;
  size_t cols;
  const char* label;
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport report("thread_scaling", argc, argv);
  bool quick = report.quick();
  std::vector<MatrixSpec> sizes = {{1000, 50, "1000x50"},
                                   {3000, 100, "3000x100"},
                                   {10000, 100, "10000x100"}};
  std::vector<int> thread_counts = {1, 2, 4, 8};
  size_t k = 20;
  if (quick) {
    sizes = {{1000, 50, "1000x50"}};
    thread_counts = {1, 4};
    k = 10;
  }
  report.Config("k", bench::Uint(k));
  report.Config("embedded_clusters", bench::Uint(50));
  report.Config("noise_stddev", bench::Num(2.0));

  // Per-iteration latency quantiles ride along in each result row; the
  // snapshot-delta protocol isolates each run without global resets.
  obs::MetricsRegistry::SetEnabled(true);
  obs::QuantileHistogram* iteration_latency =
      obs::MetricsRegistry::Global().GetQuantileHistogram(
          "floc.iteration.latency", obs::LatencySecondsOptions());

  std::printf(
      "Thread scaling: the Table 2/3 workload (k=%zu) on the persistent\n"
      "engine pool at 1/2/4/8 threads. Results are bit-identical at every\n"
      "thread count, so rows compare identical work.%s\n\n",
      k, quick ? " [--quick]" : "");

  std::vector<std::string> header = {"size"};
  for (int t : thread_counts) {
    header.push_back("t=" + std::to_string(t));
  }
  header.push_back("speedup@max");
  TextTable seconds(header);

  for (const MatrixSpec& spec : sizes) {
    SyntheticConfig data_config;
    data_config.rows = spec.rows;
    data_config.cols = spec.cols;
    data_config.num_clusters = 50;
    data_config.volume_mean = (0.04 * spec.rows) * (0.1 * spec.cols);
    data_config.noise_stddev = 2.0;
    data_config.seed = 17;
    SyntheticDataset data = GenerateSynthetic(data_config);

    std::vector<std::string> row = {spec.label};
    double serial_seconds = 0.0;
    double last_seconds = 0.0;
    size_t serial_iterations = 0;
    for (int threads : thread_counts) {
      FlocConfig config;
      config.num_clusters = k;
      config.seeding.row_probability = 0.05;
      config.seeding.col_probability = 0.2;
      config.ordering = ActionOrdering::kWeightedRandom;
      config.refine_passes = 0;  // measure the core move phase only
      config.fresh_gains_at_apply = false;
      config.relative_improvement = 0.01;
      config.reseed_rounds = 0;
      config.threads = threads;
      config.rng_seed = 29;
      obs::QuantileHistogramSnapshot latency_before =
          iteration_latency->Snapshot();
      FlocResult result = Floc(config).Run(data.matrix);
      obs::QuantileHistogramSnapshot latency =
          iteration_latency->Snapshot().Delta(latency_before);

      if (threads == thread_counts.front()) {
        serial_seconds = result.elapsed_seconds;
        serial_iterations = result.iterations;
      } else if (result.iterations != serial_iterations) {
        std::fprintf(stderr,
                     "thread_scaling: DETERMINISM VIOLATION at %s t=%d "
                     "(%zu vs %zu iterations)\n",
                     spec.label, threads, result.iterations,
                     serial_iterations);
        return 1;
      }
      // Throughput: one gain determination per row+column per iteration.
      double items = static_cast<double>(result.iterations) *
                     static_cast<double>(spec.rows + spec.cols);
      double items_per_second =
          result.elapsed_seconds > 0.0 ? items / result.elapsed_seconds : 0.0;
      last_seconds = result.elapsed_seconds;
      row.push_back(TextTable::Num(result.elapsed_seconds, 2));
      report.AddResult(
          {{"rows", bench::Uint(spec.rows)},
           {"cols", bench::Uint(spec.cols)},
           {"threads", bench::Int(threads)},
           {"iterations", bench::Uint(result.iterations)},
           {"seconds", bench::Num(result.elapsed_seconds)},
           {"items_per_second", bench::Num(items_per_second)},
           {"speedup",
            bench::Num(result.elapsed_seconds > 0.0
                           ? serial_seconds / result.elapsed_seconds
                           : 0.0)},
           {"latency_p50", bench::Num(latency.ValueAtQuantile(0.5))},
           {"latency_p90", bench::Num(latency.ValueAtQuantile(0.9))},
           {"latency_p99", bench::Num(latency.ValueAtQuantile(0.99))}});
      std::fflush(stdout);
    }
    row.push_back(TextTable::Num(
        last_seconds > 0.0 ? serial_seconds / last_seconds : 0.0, 2));
    seconds.AddRow(row);
  }

  std::printf("Response time (seconds) by worker-thread count\n");
  seconds.Print(std::cout);
  std::printf(
      "\nGain determination dominates at these sizes, so time should\n"
      "shrink with threads; the apply sweep commits sequentially (pool\n"
      "helpers only refresh its gain memo ahead of it), so Amdahl bounds\n"
      "the speedup below linear.\n");
  return 0;
}
