// Phase-1 seed generation for FLOC (paper Sections 4.1 / 5.1).
//
// Each of the k initial clusters includes every row with probability p_row
// and every column with probability p_col, so a seed is expected to hold
// p_row * M rows and p_col * N columns. Section 5.1 additionally proposes
// *mixed* initial volumes -- per-cluster target volumes drawn from an
// Erlang distribution -- because divergent seed volumes tolerate unknown
// and heterogeneous embedded-cluster volumes best (paper Figure 9 and
// Table 5).
#ifndef DELTACLUS_CORE_SEEDING_H_
#define DELTACLUS_CORE_SEEDING_H_

#include <cstddef>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/data_matrix.h"
#include "src/util/rng.h"

namespace deltaclus {

namespace engine {
class ThreadPool;
}  // namespace engine

/// Configuration for FLOC's Phase-1 seed clusters.
struct SeedingConfig {
  /// Inclusion probability for each row (paper's p applied to objects).
  double row_probability = 0.05;
  /// Inclusion probability for each column (paper's p applied to attrs).
  double col_probability = 0.2;

  /// If true, each seed's *expected volume* is drawn from an Erlang
  /// distribution with mean `volume_mean` (0 = derive from the
  /// probabilities above) and variance `volume_variance`, and both
  /// inclusion probabilities are scaled to hit that volume while keeping
  /// their row:column aspect ratio.
  bool mixed_volumes = false;
  double volume_mean = 0.0;
  double volume_variance = 0.0;
};

/// Minimum number of member rows and of member columns per seed. Random
/// draws that come up short are topped up with uniformly chosen extra
/// members; this prevents degenerate (empty or single-line) seeds, whose
/// residue is trivially zero.
inline constexpr size_t kMinSeedSide = 2;

/// Generates `num_clusters` random seed clusters for `matrix`.
std::vector<Cluster> GenerateSeeds(const DataMatrix& matrix,
                                   const SeedingConfig& config,
                                   size_t num_clusters, Rng& rng);

/// Repairs `cluster` so it satisfies the occupancy threshold `alpha`
/// (Definition 3.1): repeatedly drops the row or column with the lowest
/// occupancy until every member row has >= alpha * |J| specified entries
/// and every member column >= alpha * |I|. Needed because random seeds
/// over sparse matrices (e.g. MovieLens) rarely satisfy alpha as drawn,
/// while Section 4.3 requires initial clusters to comply with the
/// constraints. No-op when alpha <= 0.
void RepairOccupancy(const DataMatrix& matrix, double alpha, Cluster* cluster);

/// Forward declaration (constraints.h depends on cluster_stats.h).
struct Constraints;

/// Adjusts `cluster` until it satisfies all *unary* constraints (size,
/// volume, occupancy): tops up with random rows/columns to reach minimum
/// sizes/volume, trims random members to respect maxima, and repairs
/// occupancy. Section 4.3 requires Phase-1 seeds to comply with the
/// constraints; FLOC's blocking then keeps compliance invariant. Gives up
/// (returning false) if the constraints cannot be met on this matrix
/// after a bounded number of attempts. The dense-core fallback's anchor
/// search (a read-only per-column coverage count) runs on `pool` when one
/// is provided; results are identical with or without it.
bool RepairSeed(const DataMatrix& matrix, const Constraints& constraints,
                Cluster* cluster, Rng& rng,
                engine::ThreadPool* pool = nullptr);

}  // namespace deltaclus

#endif  // DELTACLUS_CORE_SEEDING_H_
