// The `.dcs` binary checkpoint format: a MiningSession's resumable
// Phase-2 state, serialized at a Step() boundary.
//
// A .dcs file is a fixed 128-byte header followed by a single packed
// payload section:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//        0     4  magic "dcs1"
//        4     4  u32 format version (currently 4)
//        8     4  u32 endianness tag 0x01020304, written native
//       12     4  u32 header size in bytes (128)
//       16     8  u64 rows (of the mined matrix)
//       24     8  u64 cols
//       32     8  u64 num_clusters (k)
//       40     8  u64 payload size in bytes
//       48     8  u64 payload checksum (FNV-1a 64 over the payload)
//       56     8  u64 config fingerprint (FingerprintConfig below)
//       64     8  u64 header checksum (FNV-1a 64 over bytes [0, 64))
//       72    56  reserved, zero
//
// The payload is the session's entire algorithmic state in declaration
// order of SessionCheckpoint (plus the phase walls its perf report
// sums across segments): the state-machine position, the RNG
// engine (the exact mt19937_64 stream state, via the standard library's
// guaranteed textual serialization), and the cluster memberships -- one
// list for the live views, which at every step boundary are the best
// clustering, plus the reseed save-slots. No per-iteration record
// travels (a resumed session's telemetry log starts at the checkpoint's
// iteration), and no stats travel either: at a step
// boundary every live view's ClusterStats equal a from-scratch Build()
// of its membership (MiningSession keeps that invariant), so restore
// rebuilds them bit-for-bit. Doubles travel as bit patterns, never
// through text. Everything else a running session holds (scores,
// constraint tracker, gain memo, packed panes, residue caches) is
// *derived* state, recomputed on restore: scores are pure functions of
// the rebuilt stats, the tracker is integer occupancy tallies rebuilt
// from membership, and the epoch-stamped caches simply start cold and
// recompute exactly what the warm ones would have served (see
// MiningSession's class comment for the full determinism argument).
//
// The header/checksum discipline deliberately mirrors the .dcm matrix
// format (src/storage/dcm_format.h): same endianness pinning, same
// two-checksum layout, same atomic write-to-temporary-then-rename, and
// the same policy that every invalid file is rejected with an exception
// *naming the defect* -- truncated header, bad magic, version mismatch,
// endianness mismatch, header/payload checksum mismatch, or a
// structurally invalid payload. A checkpoint is also bound to the run
// that wrote it two ways: by the config fingerprint -- a digest over
// every result-affecting FlocConfig field plus the matrix shape -- and
// by a matrix content fingerprint (exact value bits and missing-entry
// mask), so resuming under a config or against a data set that would
// diverge is a named rejection instead of a silently different (or
// silently nonsensical) clustering. Fields that cannot affect mined
// results -- threads, pool, audit, telemetry, and the session budgets
// themselves -- stay out of the config fingerprint, so a checkpoint
// taken on 8 threads resumes fine on 1 or under a different deadline.
#ifndef DELTACLUS_SESSION_SESSION_FORMAT_H_
#define DELTACLUS_SESSION_SESSION_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/floc.h"

namespace deltaclus::session {

/// Fixed header size of a .dcs file.
inline constexpr size_t kDcsHeaderBytes = 128;

/// Format magic ("dcs1") and the current version.
inline constexpr char kDcsMagic[4] = {'d', 'c', 's', '1'};
inline constexpr uint32_t kDcsVersion = 5;

/// Wall seconds of each perf-report phase, summed by MiningSession as its
/// steps run and carried through checkpoints, so a resumed run reports
/// the walls of every segment (as its total time does). `seeding` is
/// Phase 1's; determine and apply lie within move_phase.
struct PhaseWalls {
  double seeding = 0.0;
  double move_phase = 0.0;
  double determine = 0.0;  ///< Within move_phase: gain determination.
  double apply = 0.0;      ///< Within move_phase: the apply sweep.
  double refine = 0.0;
  double reseed = 0.0;     ///< Restart bookkeeping only.
};

/// One cluster's membership, as sorted parent-space id lists (the
/// canonical form Cluster stores and Cluster::FromMembers accepts).
struct ClusterMembers {
  std::vector<uint32_t> rows;
  std::vector<uint32_t> cols;
};

/// The decoded checkpoint: header fields plus the full payload. Field
/// order here is the payload's serialization order.
struct SessionCheckpoint {
  // Header.
  uint64_t rows = 0;
  uint64_t cols = 0;
  uint64_t config_fingerprint = 0;

  // Payload.
  uint64_t matrix_fingerprint = 0;  ///< FingerprintMatrix of the data set.
  uint32_t state = 0;           ///< SessionState enum value.
  uint64_t round = 0;           ///< Reseed round (0 = initial pass).
  uint64_t move_iteration = 0;  ///< Iteration within the current move phase.
  uint64_t total_iterations = 0;
  uint8_t seeds_compliant = 1;  ///< Initial clustering satisfied occupancy.
  uint8_t pending_restore = 0;  ///< A reseed round awaits restore-worse.
  double best_average = 0.0;
  double prior_elapsed_seconds = 0.0;  ///< Wall seconds of earlier segments.
  PhaseWalls walls;  ///< Phase walls of earlier segments (six doubles).
  std::string rng_state;  ///< mt19937_64 textual stream state.
  std::vector<ClusterMembers> clusters;  ///< The live (= best) clustering.
  std::vector<uint64_t> stagnant;       ///< Reseeded slots (pending restore).
  std::vector<ClusterMembers> saved;    ///< Their pre-reseed memberships.
  std::vector<double> saved_scores;     ///< Their pre-reseed scores.
};

/// Digest over the result-affecting FlocConfig fields and the problem
/// shape (rows x cols, k actual clusters). Two configs with equal
/// fingerprints produce bit-identical mining trajectories from equal
/// state, which is what makes cross-config resume rejection sound.
uint64_t FingerprintConfig(const FlocConfig& config, uint64_t rows,
                           uint64_t cols, uint64_t k);

/// Digest over the matrix's exact contents: the missing-entry mask and
/// the bit patterns of every specified value, row-major. Same shape but
/// different data is the one mismatch the shape check cannot catch, and
/// a checkpoint's memberships are only meaningful against the exact data
/// set that produced them. O(rows x cols); a session computes it once,
/// not per checkpoint. Backend-independent (mem and mmap digest
/// identically).
uint64_t FingerprintMatrix(const DataMatrix& matrix);

/// Serializes `cp` as a .dcs file at `path` (atomically: written to a
/// temporary sibling, then renamed). Throws std::runtime_error on I/O
/// failure.
void WriteSessionCheckpoint(const SessionCheckpoint& cp,
                            const std::string& path);

/// Reads and fully validates a .dcs file: header (magic, version,
/// endianness, size, checksum), payload checksum, and payload structure
/// (counts consistent with k, cluster ids within the matrix shape,
/// parseable RNG state, no trailing bytes). Throws std::runtime_error
/// naming the defect; `origin` (typically the path) prefixes every
/// message. Config-fingerprint agreement is the caller's check --
/// this layer has no config in hand.
SessionCheckpoint ReadSessionCheckpoint(const std::string& path,
                                        const std::string& origin);

/// True if `path` exists, is readable, and starts with the .dcs magic.
/// A cheap sniff; never throws.
bool LooksLikeDcsFile(const std::string& path);

}  // namespace deltaclus::session

#endif  // DELTACLUS_SESSION_SESSION_FORMAT_H_
