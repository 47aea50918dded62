// Shared helpers for the experiment drivers (one binary per paper
// table/figure). Each driver accepts --quick to run a reduced sweep,
// prints column-aligned
// tables mirroring the paper's, and emits a machine-readable
// BENCH_<name>.json record through BenchReport so CI (and humans) can
// diff runs without scraping stdout. scripts/validate_bench_json.py
// checks the emitted files against scripts/bench_schema.json.
#ifndef DELTACLUS_BENCH_BENCH_COMMON_H_
#define DELTACLUS_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/simd_dispatch.h"
#include "src/obs/clock.h"
#include "src/obs/json.h"

namespace deltaclus::bench {

/// True when a reduced sweep was requested via --quick.
inline bool QuickMode(int argc, char** argv) {
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--quick") == 0) return true;
  }
  return false;
}

/// Worker threads for FLOC's gain-determination phase.
inline int Threads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// JSON-encoded scalars for BenchReport config/result cells.
inline std::string Num(double v) { return obs::JsonNumber(v); }
inline std::string Int(int64_t v) { return std::to_string(v); }
inline std::string Uint(uint64_t v) { return std::to_string(v); }
inline std::string Bool(bool v) { return v ? "true" : "false"; }
inline std::string Str(std::string_view s) {
  // reserve/append rather than a `"\"" + ... + "\""` chain: GCC 12's
  // -O3 -Wrestrict misfires on the chained operator+ temporaries.
  std::string escaped = obs::JsonEscape(s);
  std::string out;
  out.reserve(escaped.size() + 2);
  out.append(1, '"').append(escaped).append(1, '"');
  return out;
}

/// One key -> pre-encoded-JSON-value row (order preserved on output).
using BenchRow = std::vector<std::pair<std::string, std::string>>;

/// Machine-readable record of one bench-driver run.
///
/// Usage, at the top of main():
///   BenchReport report("fig8_seed_volume", argc, argv);
///   bool quick = report.quick();
///   report.Config("rows", Int(rows));
///   ...
///   report.AddResult({{"ratio", Num(r)}, {"seconds", Num(s)}});
///   ...  // Write() runs at destruction
///
/// The record lands at the --json-out=PATH flag's path, else in
/// BENCH_<name>.json in the working directory.
class BenchReport {
 public:
  BenchReport(std::string name, int argc, char** argv)
      : name_(std::move(name)),
        quick_(QuickMode(argc, argv)),
        path_("BENCH_" + name_ + ".json") {
    for (int a = 1; a < argc; ++a) {
      constexpr const char* kJsonOut = "--json-out=";
      if (std::strncmp(argv[a], kJsonOut, std::strlen(kJsonOut)) == 0) {
        path_ = argv[a] + std::strlen(kJsonOut);
      }
    }
  }

  ~BenchReport() { Write(); }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  bool quick() const { return quick_; }
  const std::string& path() const { return path_; }

  /// Records one configuration entry; `encoded` must already be valid
  /// JSON (use Num/Int/Str/Bool above).
  void Config(const std::string& key, std::string encoded) {
    config_.emplace_back(key, std::move(encoded));
  }

  /// Appends one result row.
  void AddResult(BenchRow row) { results_.push_back(std::move(row)); }

  /// Writes BENCH_<name>.json; idempotent (later calls rewrite with the
  /// rows accumulated so far). Returns false on I/O failure.
  bool Write() {
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return false;
    }
    obs::JsonWriter w(out);
    w.BeginObject();
    w.Key("schema_version").Int(1);
    w.Key("name").String(name_);
    w.Key("git_sha").String(GitSha());
    w.Key("quick").Bool(quick_);
    w.Key("threads").Int(Threads());
    // Machine identity for the kernel numbers: trajectory records are
    // only comparable when the core count, the CPU features and the
    // SIMD path that actually ran match.
    w.Key("logical_cores")
        .Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
    w.Key("cpu_features").String(DetectedCpuFeatures());
    w.Key("simd_path").String(ActiveSimdPath());
    std::time_t now = std::time(nullptr);
    w.Key("timestamp_unix").Int(static_cast<int64_t>(now));
    w.Key("timestamp_utc").String(FormatUtc(now));
    w.Key("wall_seconds").Number(stopwatch_.ElapsedSeconds());
    w.Key("cpu_seconds").Number(stopwatch_.CpuSeconds());
    w.Key("config").BeginObject();
    for (const auto& [key, encoded] : config_) {
      w.Key(key).Raw(encoded);
    }
    w.EndObject();
    w.Key("results").BeginArray();
    for (const BenchRow& row : results_) {
      w.BeginObject();
      for (const auto& [key, encoded] : row) {
        w.Key(key).Raw(encoded);
      }
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    out << "\n";
    bool ok = out.good();
    if (ok && !announced_) {
      std::fprintf(stderr, "bench: wrote %s\n", path_.c_str());
      announced_ = true;
    }
    return ok;
  }

 private:
  // Build-stamped git revision (see bench/CMakeLists.txt), overridable
  // at runtime via the DELTACLUS_GIT_SHA environment variable.
  static std::string GitSha() {
    // Called from Write(), which only the main thread reaches.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* env = std::getenv("DELTACLUS_GIT_SHA");
    if (env != nullptr && env[0] != '\0') return env;
#ifdef DELTACLUS_GIT_SHA
    return DELTACLUS_GIT_SHA;
#else
    return "unknown";
#endif
  }

  static std::string FormatUtc(std::time_t t) {
    std::tm tm_utc{};
#if defined(_WIN32)
    gmtime_s(&tm_utc, &t);
#else
    gmtime_r(&t, &tm_utc);
#endif
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
    return buf;
  }

  std::string name_;
  bool quick_;
  std::string path_;
  Stopwatch stopwatch_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<BenchRow> results_;
  bool announced_ = false;
};

}  // namespace deltaclus::bench

#endif  // DELTACLUS_BENCH_BENCH_COMMON_H_
