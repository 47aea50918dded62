// Floc as a configured factory: config validation (with the
// DELTACLUS_AUDIT override), the thread pool its
// sessions run on, and AverageResidue. The run entry points live in
// src/session/floc_driver.cc, the Phase-2 loop in the MiningSession
// state machine (src/session/), and the phase components it drives --
// refinement included -- in src/core/floc_phases.h.
#include "src/core/floc.h"

#include <cstdlib>
#include <stdexcept>

#include "src/engine/thread_pool.h"

namespace deltaclus {

std::vector<std::string> FlocConfig::Validate() const {
  std::vector<std::string> problems;
  auto in_unit = [](double v) { return v >= 0.0 && v <= 1.0; };

  if (num_clusters == 0) problems.push_back("num_clusters must be >= 1");
  if (!in_unit(seeding.row_probability)) {
    problems.push_back("seeding.row_probability must be in [0, 1]");
  }
  if (!in_unit(seeding.col_probability)) {
    problems.push_back("seeding.col_probability must be in [0, 1]");
  }
  if (seeding.mixed_volumes) {
    if (seeding.volume_mean < 0) {
      problems.push_back("seeding.volume_mean must be >= 0");
    }
    if (seeding.volume_variance < 0) {
      problems.push_back("seeding.volume_variance must be >= 0");
    }
  }
  if (!in_unit(constraints.alpha)) {
    problems.push_back("constraints.alpha must be in [0, 1]");
  }
  if (constraints.min_rows > constraints.max_rows) {
    problems.push_back("constraints.min_rows exceeds max_rows");
  }
  if (constraints.min_cols > constraints.max_cols) {
    problems.push_back("constraints.min_cols exceeds max_cols");
  }
  if (constraints.min_volume > constraints.max_volume) {
    problems.push_back("constraints.min_volume exceeds max_volume");
  }
  if (constraints.max_overlap < 0) {
    problems.push_back("constraints.max_overlap must be >= 0");
  }
  if (!in_unit(constraints.min_row_coverage)) {
    problems.push_back("constraints.min_row_coverage must be in [0, 1]");
  }
  if (!in_unit(constraints.min_col_coverage)) {
    problems.push_back("constraints.min_col_coverage must be in [0, 1]");
  }
  if (target_residue < 0) problems.push_back("target_residue must be >= 0");
  if (annealing_temperature < 0) {
    problems.push_back("annealing_temperature must be >= 0");
  }
  if (relative_improvement < 0) {
    problems.push_back("relative_improvement must be >= 0");
  }
  if (threads < 0) {
    problems.push_back("threads must be >= 0 (0 = hardware concurrency)");
  }
  if (deadline_seconds < 0) {
    problems.push_back("deadline_seconds must be >= 0 (0 = no deadline)");
  }
  return problems;
}

Floc::Floc(FlocConfig config) : config_(std::move(config)) {
  std::vector<std::string> problems = config_.Validate();
  if (!problems.empty()) {
    std::string message = "invalid FlocConfig:";
    for (const std::string& p : problems) message += "\n  - " + p;
    throw std::invalid_argument(message);
  }
  if (!config_.audit) {
    // DELTACLUS_AUDIT=1 forces audit mode on for every Floc instance;
    // scripts/check.sh's audit stage runs the full test suite this way.
    // Deliberate env read: audit mode only *adds* DC_CHECKs, it cannot
    // change mined results, so ambient state stays out of the results.
    // NOLINTNEXTLINE(concurrency-mt-unsafe, dclint:banned-getenv)
    const char* env = std::getenv("DELTACLUS_AUDIT");
    if (env != nullptr && env[0] != '\0' &&
        !(env[0] == '0' && env[1] == '\0')) {
      config_.audit = true;
    }
  }
}

Floc::~Floc() = default;

engine::ThreadPool* Floc::EnsurePool() {
  if (config_.pool != nullptr) return config_.pool;
  int threads = engine::ResolveThreads(config_.threads);
  if (threads <= 1) return nullptr;
  if (owned_pool_ == nullptr) {
    owned_pool_ = std::make_unique<engine::ThreadPool>(threads);
  }
  return owned_pool_.get();
}

double AverageResidue(const DataMatrix& matrix,
                      const std::vector<Cluster>& clusters,
                      ResidueNorm norm) {
  if (clusters.empty()) return 0.0;
  ResidueEngine engine(norm);
  double sum = 0.0;
  for (const Cluster& c : clusters) {
    ClusterWorkspace ws(matrix, c);
    sum += engine.Residue(ws);
  }
  return sum / clusters.size();
}

}  // namespace deltaclus
