// perfbench_driver: the measuring half of the repository benchmark
// (perfbench/README.md). perfbench/run.py builds it, then calls
//
//   perfbench_driver gen --workload W --seed N --dir D [--tiny]
//   perfbench_driver run --workload W --seed N --dir D --seconds S
//                        --trace 0|1 [--min-steps K] [--tiny]
//
// `gen` makes the workload's inputs from the seed -- one CSV matrix plus
// its planted clusters per instance -- in its own process, so the mining
// process only ever receives those files. `run` loads them through the
// public data/storage calls, mines closed-loop jobs through the session
// layer (one client, one job at a time, the next only after the previous
// finished) until S seconds have passed, checks every job's clustering,
// and prints one JSON document of raw measurements that run.py turns into
// the benchmark's metrics.
//
// A run mines several instances (matrices of the same shape, each with
// its own mining seed) round-robin. One matrix alone makes the figures a
// property of that matrix -- its iteration count varies by a quarter from
// seed to seed -- and the benchmark must read the same on any seed.
//
// Spans are recorded here, around the public calls into each layer; the
// library is not edited. With --trace 1 every instance is mined twice in
// a row, first with the library's own instrumentation on (metrics
// registry + summary telemetry) and then with it off, so the pair's wall
// ratio is the instrumentation overhead.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/floc.h"
#include "src/core/simd_dispatch.h"
#include "src/data/cluster_io.h"
#include "src/data/matrix_io.h"
#include "src/data/synthetic.h"
#include "src/engine/thread_pool.h"
#include "src/eval/metrics.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/session/mining_session.h"

namespace deltaclus::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads. Why each exists is recorded in BENCHMARK.json and
// perfbench/README.md; the numbers here are the whole definition.

struct Workload {
  std::string name;
  SyntheticConfig data;
  FlocConfig config;
  int threads = 1;
  size_t instances = 1;
  // The input is compiled to .dcm and mined on the mmap backend; every
  // job checkpoints after each Step() and resumes midway.
  bool checkpoint_resume = false;
};

int DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

std::optional<Workload> MakeWorkload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  w.data.noise_stddev = 2.0;
  w.config.num_clusters = 20;
  w.config.reseed_rounds = 0;
  // Both workloads cap the move phase at 16 sweeps, below where their
  // instances converge, so every job sweeps the same number of times: the
  // uncapped iteration count moves job and step times by a quarter from
  // seed to seed and would drown the cost of a sweep. core.iterations
  // reads 16 while the cap binds.
  //
  // Both mine 1500x100: at 3000x100 a job takes 2-5 s, too few jobs per
  // run for the fastest of each instance's jobs (run.py) to stay clear of
  // the host's slow spells, and 1500x100 keeps the same layer split.
  if (name == "dense-fresh") {
    w.data.rows = 1500;
    w.data.cols = 100;
    w.data.num_clusters = 50;
    w.config.target_residue = 0.5;
    w.config.perform_negative_actions = false;
    w.config.refine_passes = 2;
    w.config.max_iterations = 16;
    w.threads = DefaultThreads();
    w.instances = 8;
  } else if (name == "sparse-resume") {
    w.data.rows = 1500;
    w.data.cols = 100;
    w.data.num_clusters = 50;
    w.data.missing_fraction = 0.3;
    // The paper-literal Table 2/3 mode: stale decisions, forced
    // negative actions, 1% convergence tolerance, no refinement.
    w.config.fresh_gains_at_apply = false;
    w.config.perform_negative_actions = true;
    w.config.relative_improvement = 0.01;
    w.config.refine_passes = 0;
    w.config.max_iterations = 16;
    w.threads = DefaultThreads();
    w.instances = 6;
    w.checkpoint_resume = true;
  } else {
    return std::nullopt;
  }
  if (tiny) {
    // Smoke-test size: the same code paths in well under a second.
    w.data.rows = 200;
    w.data.cols = 30;
    w.data.num_clusters = 5;
    w.config.num_clusters = 4;
    w.instances = 2;
  }
  return w;
}

/// Instance `i` of a run with workload seed `seed`: its data seed and its
/// mining seed, both fixed by the pair.
uint64_t InstanceSeed(uint64_t seed, size_t i, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + i * 0xBF58476D1CE4E5B9ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string InstanceDir(const std::string& dir, size_t i) {
  return dir + "/" + std::to_string(i);
}

// ---------------------------------------------------------------------------
// Timing helpers.

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One bench-side span: a named interval and the index of the span that
/// caused it (-1 for a root). Times are seconds since the run started.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

/// The spans of one job or one set-up, kept in memory and written out
/// with the run's document.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  int Open(std::string name, int parent) {
    spans_.push_back({std::move(name), Now(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) { spans_[id].end = Now(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double Now() const { return Seconds(epoch_, Clock::now()); }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Output checks.

/// FNV-1a over every cluster's member ids: equal hashes mean the same
/// clustering.
uint64_t HashClusters(const std::vector<Cluster>& clusters) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(clusters.size());
  for (const Cluster& c : clusters) {
    mix(c.NumRows());
    for (uint32_t r : c.row_ids()) mix(r);
    mix(c.NumCols());
    for (uint32_t col : c.col_ids()) mix(col);
  }
  return h;
}

/// A reference clustering must have k clusters, each at least the
/// constraint minimum, with finite residues.
std::string ValidateResult(const FlocResult& r, const FlocConfig& config) {
  if (r.clusters.size() != config.num_clusters) {
    return "expected " + std::to_string(config.num_clusters) +
           " clusters, got " + std::to_string(r.clusters.size());
  }
  for (size_t c = 0; c < r.clusters.size(); ++c) {
    if (r.clusters[c].NumRows() < config.constraints.min_rows ||
        r.clusters[c].NumCols() < config.constraints.min_cols) {
      return "cluster " + std::to_string(c) + " is below the minimum size";
    }
    if (!std::isfinite(r.residues[c])) {
      return "cluster " + std::to_string(c) + " has a non-finite residue";
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// One mining job.

/// Sums the per-iteration determine/apply walls the library reports
/// through its telemetry stream. A sink rather than FlocResult::telemetry
/// so a resume job also counts the iterations of the session it dropped.
class CoreSink : public obs::TelemetrySink {
 public:
  void OnIteration(const obs::IterationTelemetry& it) override {
    determine_seconds += it.determine_seconds;
    apply_seconds += it.apply_seconds;
  }
  void OnRunEnd(const obs::RunTelemetry&) override {}

  double determine_seconds = 0.0;
  double apply_seconds = 0.0;
};

struct Step {
  const char* kind = "";  // move / refine / reseed
  double wall = 0.0;
  double cpu = 0.0;
};

struct JobRecord {
  size_t instance = 0;
  bool traced = false;
  bool ok = false;
  std::string error;
  double wall = 0.0;
  std::vector<Step> steps;
  std::vector<Span> spans;
  std::vector<uint64_t> checkpoint_bytes;
  uint64_t hash = 0;
  uint64_t iterations = 0;
  // Library figures, read on traced jobs.
  double determine_seconds = 0.0;
  double apply_seconds = 0.0;
  obs::PerfReport perf;
};

const char* StepKind(session::SessionState state) {
  switch (state) {
    case session::SessionState::kMovePhase:
      return "move";
    case session::SessionState::kRefine:
      return "refine";
    default:
      return "reseed";
  }
}

/// Mines one job on `floc`. `resume_after` >= 0 checkpoints after every
/// step, drops the session after that many steps and continues from the
/// checkpoint; -1 mines straight through.
FlocResult Mine(Floc& floc, const DataMatrix& matrix,
                const std::string& checkpoint, int resume_after,
                Clock::time_point epoch, JobRecord* job) {
  SpanLog log(epoch);
  const int root = log.Open("job", -1);
  const auto start = Clock::now();

  int span = log.Open("session.start", root);
  std::unique_ptr<session::MiningSession> s = floc.StartSession(matrix);
  log.Close(span);

  int taken = 0;
  while (true) {
    const char* kind = StepKind(s->Status().state);
    span = log.Open(std::string("session.") + kind, root);
    const double cpu0 = ProcessCpuSeconds();
    const auto t0 = Clock::now();
    const bool more = s->Step();
    const auto t1 = Clock::now();
    const double cpu1 = ProcessCpuSeconds();
    log.Close(span);
    job->steps.push_back({kind, Seconds(t0, t1), cpu1 - cpu0});
    if (!more) break;
    ++taken;
    if (resume_after < 0) continue;
    span = log.Open("session.checkpoint", root);
    s->Checkpoint(checkpoint);
    log.Close(span);
    job->checkpoint_bytes.push_back(std::filesystem::file_size(checkpoint));
    if (taken == resume_after) {
      // Dropping the live session is part of what a restart costs.
      span = log.Open("session.resume", root);
      s.reset();
      s = floc.ResumeSession(matrix, checkpoint);
      log.Close(span);
    }
  }

  span = log.Open("session.finish", root);
  FlocResult result = s->Finish();
  log.Close(span);
  job->wall = Seconds(start, Clock::now());
  log.Close(root);
  job->spans = log.spans();
  job->iterations = result.iterations;
  job->hash = HashClusters(result.clusters);
  return result;
}

// ---------------------------------------------------------------------------
// JSON output.

void WriteSpans(obs::JsonWriter& w, const std::vector<Span>& spans) {
  w.BeginArray();
  for (const Span& s : spans) {
    w.BeginObject();
    w.Key("name").String(s.name);
    w.Key("start").Number(s.start);
    w.Key("end").Number(s.end);
    w.Key("parent").Int(s.parent);
    w.EndObject();
  }
  w.EndArray();
}

void WriteJob(obs::JsonWriter& w, const JobRecord& job) {
  w.BeginObject();
  w.Key("instance").Uint(job.instance);
  w.Key("traced").Bool(job.traced);
  w.Key("ok").Bool(job.ok);
  w.Key("error").String(job.error);
  w.Key("wall").Number(job.wall);
  w.Key("iterations").Uint(job.iterations);
  w.Key("steps").BeginArray();
  for (const Step& s : job.steps) {
    w.BeginObject();
    w.Key("kind").String(s.kind);
    w.Key("wall").Number(s.wall);
    w.Key("cpu").Number(s.cpu);
    w.EndObject();
  }
  w.EndArray();
  w.Key("spans");
  WriteSpans(w, job.spans);
  w.Key("checkpoint_bytes").BeginArray();
  for (uint64_t b : job.checkpoint_bytes) w.Uint(b);
  w.EndArray();
  if (job.traced) {
    const obs::PerfReport& p = job.perf;
    w.Key("core").BeginObject();
    w.Key("metrics_valid").Bool(p.metrics_valid);
    w.Key("determine_s").Number(job.determine_seconds);
    w.Key("apply_s").Number(job.apply_seconds);
    w.Key("entries_scanned").Uint(p.entries_scanned);
    w.Key("dense_dispatch_rate").Number(p.dense_dispatch_rate);
    w.Key("memo_served").Uint(p.gain_evals_served);
    w.Key("memo_recomputed").Uint(p.gain_evals_recomputed);
    w.Key("pane_patches").Uint(p.pane_patches);
    w.Key("pane_rebuilds").Uint(p.pane_rebuilds);
    w.Key("clusters_skipped_clean").Uint(p.clusters_skipped_clean);
    w.Key("shard_imbalance_p50").Number(p.shard_imbalance.p50);
    w.EndObject();
  }
  w.EndObject();
}

// ---------------------------------------------------------------------------
// Subcommands.

struct Args {
  std::string command;
  std::string workload;
  uint64_t seed = 1;
  std::string dir;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  size_t min_steps = 0;
  double max_seconds = 120.0;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why << "\n"
            << "usage: perfbench_driver gen|run --workload W --seed N --dir D"
               " [--seconds S] [--trace 0|1] [--min-steps K]"
               " [--max-seconds S] [--tiny]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  if (argc < 2) Usage("missing subcommand");
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) Usage("flag " + flag + " needs a value");
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--dir") {
        a.dir = v;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = v == "1";
      } else if (flag == "--min-steps") {
        a.min_steps = std::stoul(v);
      } else if (flag == "--max-seconds") {
        a.max_seconds = std::stod(v);
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.dir.empty()) Usage("--dir is required");
  return a;
}

int Gen(const Workload& w, const Args& args) {
  for (size_t i = 0; i < w.instances; ++i) {
    SyntheticConfig data = w.data;
    data.seed = InstanceSeed(args.seed, i, 0);
    SyntheticDataset generated = GenerateSynthetic(data);
    const std::string dir = InstanceDir(args.dir, i);
    std::filesystem::create_directories(dir);
    WriteCsvFile(generated.matrix, dir + "/matrix.csv");
    WriteClustersFile(generated.embedded, dir + "/truth.txt");
  }
  return 0;
}

/// What set-up builds for one instance: the loaded matrix, its pool and
/// the Flocs mining it (the traced twin differs only in result-neutral
/// instrumentation fields, so its jobs must hash like the plain ones).
struct Instance {
  std::string dir;
  DataMatrix matrix;
  std::unique_ptr<engine::ThreadPool> pool;
  std::unique_ptr<Floc> floc;
  std::unique_ptr<Floc> traced_floc;
  bool has_reference = false;
  uint64_t reference_hash = 0;
  int resume_after = -1;
};

FlocConfig InstanceConfig(const Workload& w, uint64_t seed, size_t i,
                          engine::ThreadPool* pool) {
  FlocConfig config = w.config;
  config.rng_seed = InstanceSeed(seed, i, 1);
  config.threads = w.threads;
  config.pool = pool;
  return config;
}

/// Loads instance `i` the way a user's process starts: parse the CSV
/// (sparse-resume: compile it to .dcm and map that), then build the pool and
/// the Floc. Every call is one set-up sample in `log`.
Instance SetUp(const Workload& w, const Args& args, size_t i, SpanLog* log) {
  const std::string dir = InstanceDir(args.dir, i);
  const int root = log->Open("setup", -1);
  int span = log->Open("data.csv_parse", root);
  DataMatrix matrix = ReadCsvFile(dir + "/matrix.csv");
  log->Close(span);
  if (w.checkpoint_resume) {
    span = log->Open("storage.dcm_write", root);
    WriteDcmFile(matrix, dir + "/matrix.dcm");
    log->Close(span);
    span = log->Open("storage.dcm_open", root);
    matrix = ReadDcmFile(dir + "/matrix.dcm", MatrixBackend::kMmap);
    log->Close(span);
  }
  span = log->Open("setup.floc", root);
  std::unique_ptr<engine::ThreadPool> pool;
  if (w.threads > 1) pool = std::make_unique<engine::ThreadPool>(w.threads);
  auto floc =
      std::make_unique<Floc>(InstanceConfig(w, args.seed, i, pool.get()));
  log->Close(span);
  log->Close(root);
  return Instance{dir,     std::move(matrix), std::move(pool), std::move(floc),
                  nullptr, false,             0,               -1};
}

int Run(const Workload& w, const Args& args) {
  const auto epoch = Clock::now();
  obs::MetricsRegistry::SetEnabled(false);

  // Set-up: one sample per instance here, and one more after every timed
  // job below, so the set-up samples span the run instead of its first
  // second.
  SpanLog setup_log(epoch);
  std::vector<Instance> instances;
  for (size_t i = 0; i < w.instances; ++i) {
    instances.push_back(SetUp(w, args, i, &setup_log));
  }

  CoreSink sink;
  if (args.trace) {
    for (size_t i = 0; i < instances.size(); ++i) {
      FlocConfig config =
          InstanceConfig(w, args.seed, i, instances[i].pool.get());
      config.telemetry = obs::TelemetryLevel::kSummary;
      config.telemetry_sink = &sink;
      instances[i].traced_floc = std::make_unique<Floc>(config);
    }
  }

  // References. An instance's reference is the first clustering mined on
  // it; it must pass ValidateResult, and every later job on the instance
  // must hash like it. sparse-resume mines its references here, untimed,
  // without interruption, so every checkpoint-and-resume job is checked
  // against a straight run. dense-fresh takes the reference of instance 0
  // from the warm-up and that of every other instance from its first
  // timed job: a separate untimed round would cost a job per instance in
  // every run, time better spent measuring.
  double recall_sum = 0.0;
  double precision_sum = 0.0;
  size_t references = 0;
  auto set_reference = [&](Instance& inst, const FlocResult& r,
                           uint64_t hash) {
    inst.has_reference = true;
    inst.reference_hash = hash;
    std::vector<Cluster> truth = ReadClustersFile(
        inst.dir + "/truth.txt", inst.matrix.rows(), inst.matrix.cols());
    MatchQuality q = EntryRecallPrecision(inst.matrix, truth, r.clusters);
    recall_sum += q.recall;
    precision_sum += q.precision;
    ++references;
    return ValidateResult(r, w.config);
  };
  // Checks a finished job against its instance's reference, or makes it
  // the reference. Returns what is wrong with it, or "".
  auto check = [&](Instance& inst, const FlocResult& r, const JobRecord& job) {
    if (!inst.has_reference) return set_reference(inst, r, job.hash);
    if (job.hash == inst.reference_hash) return std::string();
    return std::string(inst.resume_after >= 0
                           ? "resumed run differs from the uninterrupted one"
                           : "clustering differs from the reference");
  };

  // The untimed jobs; the first is the process's first job, whose cold
  // start (parallel sweeps at cpu≈wall in a fresh process) is recorded
  // there and kept out of the timed figures.
  std::vector<JobRecord> warmups;
  std::string reference_error;
  if (w.checkpoint_resume) {
    for (size_t i = 0; i < instances.size(); ++i) {
      Instance& inst = instances[i];
      JobRecord reference;
      FlocResult r = Mine(*inst.floc, inst.matrix, inst.dir + "/session.dcs",
                          -1, epoch, &reference);
      reference.error = set_reference(inst, r, reference.hash);
      reference.ok = reference.error.empty();
      if (!reference.ok && reference_error.empty()) {
        reference_error = "instance " + std::to_string(i) + ": " +
                          reference.error;
      }
      inst.resume_after = static_cast<int>(reference.steps.size() / 2);
      if (i == 0) warmups.push_back(std::move(reference));
    }
  }

  // Warm-up: one untimed job of the timed kind, on instance 0.
  {
    Instance& inst = instances[0];
    JobRecord& warmup = warmups.emplace_back();
    FlocResult r = Mine(*inst.floc, inst.matrix, inst.dir + "/session.dcs",
                        inst.resume_after, epoch, &warmup);
    warmup.error = check(inst, r, warmup);
    warmup.ok = warmup.error.empty();
    if (!warmup.ok && reference_error.empty()) {
      reference_error = "instance 0: " + warmup.error;
    }
  }

  // Timed closed loop, round-robin over the instances, until the time is
  // up, every instance ran (traced runs: one pair each), and the
  // step-latency percentile has enough samples. Traced runs mine each
  // instance twice in a row: instrumented, then plain.
  std::vector<JobRecord> jobs;
  size_t plain_steps = 0;
  const size_t min_jobs = (args.trace ? 2 : 1) * instances.size();
  const auto loop_start = Clock::now();
  for (size_t n = 0;; ++n) {
    const double elapsed = Seconds(loop_start, Clock::now());
    const bool enough = elapsed >= args.seconds && n >= min_jobs &&
                        n % (args.trace ? 2 : 1) == 0 &&
                        plain_steps >= args.min_steps;
    if (enough || elapsed >= args.max_seconds) break;
    JobRecord job;
    job.traced = args.trace && n % 2 == 0;
    job.instance = (args.trace ? n / 2 : n) % instances.size();
    Instance& inst = instances[job.instance];
    obs::MetricsRegistry::SetEnabled(job.traced);
    sink = CoreSink{};
    try {
      FlocResult r = Mine(job.traced ? *inst.traced_floc : *inst.floc,
                          inst.matrix, inst.dir + "/session.dcs",
                          inst.resume_after, epoch, &job);
      job.error = check(inst, r, job);
      job.ok = job.error.empty();
      job.perf = r.perf;
      job.determine_seconds = sink.determine_seconds;
      job.apply_seconds = sink.apply_seconds;
    } catch (const std::exception& e) {
      job.ok = false;
      job.error = e.what();
    }
    obs::MetricsRegistry::SetEnabled(false);
    if (!job.traced) plain_steps += job.steps.size();
    SetUp(w, args, job.instance, &setup_log);
    jobs.push_back(std::move(job));
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  obs::JsonWriter out(std::cout);
  out.BeginObject();
  out.Key("identity").BeginObject();
  out.Key("workload").String(w.name);
  out.Key("seed").Uint(args.seed);
  out.Key("logical_cores").Uint(std::thread::hardware_concurrency());
  out.Key("threads").Int(w.threads);
  out.Key("cpu_features").String(DetectedCpuFeatures());
  out.Key("simd_path").String(ActiveSimdPath());
  out.Key("build_type").String(PERFBENCH_BUILD_TYPE);
  out.Key("instances").Uint(instances.size());
  out.Key("rows").Uint(instances[0].matrix.rows());
  out.Key("cols").Uint(instances[0].matrix.cols());
  out.Key("k").Uint(w.config.num_clusters);
  out.Key("backend").String(instances[0].matrix.BackendName());
  out.EndObject();
  out.Key("setup_spans");
  WriteSpans(out, setup_log.spans());
  out.Key("reference_error").String(reference_error);
  out.Key("recall").Number(recall_sum / static_cast<double>(references));
  out.Key("precision").Number(precision_sum /
                              static_cast<double>(references));
  out.Key("warmups").BeginArray();
  for (const JobRecord& job : warmups) WriteJob(out, job);
  out.EndArray();
  out.Key("jobs").BeginArray();
  for (const JobRecord& job : jobs) WriteJob(out, job);
  out.EndArray();
  out.Key("peak_rss_kb").Int(usage.ru_maxrss);
  out.EndObject();
  std::cout << "\n";
  return 0;
}

}  // namespace
}  // namespace deltaclus::perfbench

int main(int argc, char** argv) {
  using namespace deltaclus::perfbench;
  const Args args = ParseArgs(argc, argv);
  const std::optional<Workload> w = MakeWorkload(args.workload, args.tiny);
  if (!w) Usage("unknown workload '" + args.workload + "'");
  try {
    if (args.command == "gen") return Gen(*w, args);
    if (args.command == "run") return Run(*w, args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  Usage("unknown subcommand '" + args.command + "'");
}
