// Registry handles for FLOC's metric family, resolved once per process.
// Shared between the core phase components (src/core/refine.cc, whose
// RefineSweep counts refine toggles) and the session driver
// (src/session/mining_session.cc, which records everything else): both
// must increment the *same* registered instruments, and the registry
// hands back a stable pointer per name, so the lookup table lives here
// once instead of being duplicated per caller. The pointers are stable
// for the process lifetime; increments are relaxed atomics that no-op
// while the registry is disabled.
#ifndef DELTACLUS_CORE_FLOC_METRICS_H_
#define DELTACLUS_CORE_FLOC_METRICS_H_

#include "src/obs/metrics.h"
#include "src/obs/quantile_histogram.h"

namespace deltaclus {

struct FlocMetrics {
  obs::Counter* runs;
  obs::Counter* iterations;
  obs::Counter* actions_applied;
  obs::Counter* actions_blocked;
  obs::Counter* refine_toggles;
  obs::Counter* reseed_slots;
  obs::Counter* clusters_skipped_clean;
  obs::Gauge* last_average_residue;
  obs::QuantileHistogram* iteration_latency;

  static const FlocMetrics& Get() {
    static const FlocMetrics m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
      return FlocMetrics{
          r.GetCounter("floc.runs"),
          r.GetCounter("floc.iterations"),
          r.GetCounter("floc.actions.applied"),
          r.GetCounter("floc.actions.fully_blocked"),
          r.GetCounter("floc.refine.toggles"),
          r.GetCounter("floc.reseed.slots"),
          r.GetCounter("floc.sweep.clusters_skipped_clean"),
          r.GetGauge("floc.last.average_residue"),
          r.GetQuantileHistogram("floc.iteration.latency",
                                 obs::LatencySecondsOptions()),
      };
    }();
    return m;
  }
};

}  // namespace deltaclus

#endif  // DELTACLUS_CORE_FLOC_METRICS_H_
