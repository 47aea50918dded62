// Invariant audits for FLOC's incrementally-maintained cluster state.
//
// FLOC keeps each cluster's volume, row/column bases, and residue up to
// date across thousands of membership toggles (cluster_stats.h); a silent
// arithmetic drift there corrupts every downstream number. The functions
// here recompute that state from scratch and DC_CHECK the incremental
// copy against it, turning latent drift into an immediate, located fatal
// failure. They back FlocConfig::audit (opt-in, after every performed
// action) and are directly exercised by tests.
#ifndef DELTACLUS_CORE_AUDIT_H_
#define DELTACLUS_CORE_AUDIT_H_

#include <cstddef>

#include "src/core/cluster.h"
#include "src/core/cluster_stats.h"
#include "src/core/cluster_workspace.h"
#include "src/core/constraints.h"
#include "src/core/data_matrix.h"
#include "src/core/residue.h"

namespace deltaclus {

/// Tolerance used by every audit call site unless the caller has a reason
/// to tighten or loosen it. Incremental updates and from-scratch rebuilds
/// accumulate in different orders, so exact equality is not expected;
/// drift beyond ~1e-7 relative indicates a real bookkeeping bug rather
/// than floating-point reassociation.
inline constexpr double kDefaultAuditTolerance = 1e-7;

/// Recomputes `c`'s stats from scratch on `m` and DC_CHECKs `stats`
/// against the result: volume and per-row/column counts exactly, sums,
/// total, and bases within `tolerance` (relative to magnitude). Fatal on
/// mismatch; `context` prefixes the failure message.
void AuditStatsMatchRecompute(const DataMatrix& m, const Cluster& c,
                              const ClusterStats& stats, double tolerance,
                              const char* context);

/// True if every member row/column of `c` is alpha-occupied on `m`
/// (Definition 3.1): row i has >= alpha * |J| specified entries over the
/// cluster's columns, and symmetrically for columns. Trivially true for
/// alpha <= 0. Non-fatal query (used to gate the fatal audit on whether
/// the initial clustering complied).
bool OccupancySatisfied(const DataMatrix& m, const Cluster& c, double alpha);

/// DC_CHECKs alpha-occupancy of every member row and column. Fatal on
/// the first violating row/column, naming it in the message.
void AuditOccupancy(const DataMatrix& m, const Cluster& c, double alpha,
                    const char* context);

/// Full per-action audit of one cluster workspace:
///  - its incremental stats against a from-scratch recompute
///    (AuditStatsMatchRecompute);
///  - the residue scanned over those live stats (and the live pane),
///    against the residue of a freshly built workspace over the same
///    cluster, within `tolerance`;
///  - when the workspace holds a cached residue for `norm`, the cached
///    volume against the live stats exactly and the cached quotient
///    against that fresh residue -- a stale cache (one that survived a
///    membership toggle it should have been invalidated by) fails here;
///  - when `check_occupancy`, alpha-occupancy of every member.
/// The residue scans run on a copy, so the audited workspace's caches
/// and pane are left as they were. (The O(volume^2) naive per-entry
/// reference is pinned against the engine by the property-sweep tests;
/// the audit uses O(volume) rebuilds so it can run after every action.)
void AuditClusterWorkspace(const ClusterWorkspace& ws,
                           const Constraints& constraints, ResidueNorm norm,
                           double tolerance, const char* context,
                           bool check_occupancy = true);

}  // namespace deltaclus

#endif  // DELTACLUS_CORE_AUDIT_H_
