// Scalar-vs-SIMD bit-identity: the runtime-dispatched gain kernels
// (src/core/simd_dispatch.h) must produce the same bits as the scalar
// reference bodies (src/core/residue_kernels.h) -- the LaneAcc contract
// says dispatching can never change a mined result. Two layers pin it:
//
//   1. Kernel-level: every function in the best-available table is fed
//      the same random segments/rows/panes (across lane phases, lengths,
//      and both norms) and must reproduce the scalar output bit for bit.
//      The run slots (holey rows as specified-entry runs), the pane-scan
//      slot and the added-row path of the row-toggle kernel are
//      additionally held to the plain skip loop kept below as their
//      reference, and the batched row-toggle slot to one pane scan per
//      candidate.
//   2. End-to-end: full FLOC runs with --simd off vs auto must take
//      identical actions and emit identical clusters, across thread
//      counts {1, 8}, dense and sparse (missing-entry) data, both
//      storage backends (mem / mmap), and audit on/off (audit recomputes
//      every gain-memo hit, so both the memo and the rescan path run).
//
// On hardware without a vector table (or builds without the ISA TUs),
// both modes resolve to the scalar kernels and the tests degenerate to
// trivially-true self-comparisons -- still worth running for the
// dispatch plumbing. The CI determinism matrix additionally drives the
// same comparison through the CLI via --simd.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/cluster_workspace.h"
#include "src/core/floc.h"
#include "src/core/residue.h"
#include "src/core/residue_kernels.h"
#include "src/core/simd_dispatch.h"
#include "src/data/matrix_io.h"
#include "src/data/synthetic.h"
#include "src/obs/telemetry.h"
#include "src/storage/dcm_format.h"
#include "src/util/rng.h"

namespace deltaclus {
namespace {

// Restores the process-global SIMD mode on scope exit so test order
// cannot leak a pinned mode into unrelated tests.
class ScopedSimdMode {
 public:
  explicit ScopedSimdMode(SimdMode mode) : saved_(GetSimdMode()) {
    SetSimdMode(mode);
  }
  ~ScopedSimdMode() { SetSimdMode(saved_); }
  ScopedSimdMode(const ScopedSimdMode&) = delete;
  ScopedSimdMode& operator=(const ScopedSimdMode&) = delete;

 private:
  SimdMode saved_;
};

// The reference masked pass: a skip loop over the full row. Visits only
// specified entries; the phase advances only on them. `cols` (optional)
// reads the row from the matrix through a column-id list.
template <bool kSquared>
void SkipLoopReference(const double* values, const uint8_t* mask,
                       const uint32_t* cols, const double* col_bases,
                       size_t n, double row_base, double cluster_base,
                       LaneAcc& acc) {
  for (size_t idx = 0; idx < n; ++idx) {
    size_t pos = cols != nullptr ? cols[idx] : idx;
    if (!mask[pos]) continue;
    acc.l[acc.p & 3] += Contribution<kSquared>(values[pos], row_base,
                                               col_bases[idx], cluster_base);
    ++acc.p;
  }
}

bool SameBits(const LaneAcc& a, const LaneAcc& b) {
  return a.p == b.p && std::memcmp(a.l, b.l, sizeof(a.l)) == 0;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Mask patterns for the run and masked-row contracts: uniform densities
// from empty to full, plus long runs of holes (a whole compaction chunk
// and more) between short specified bursts.
std::vector<uint8_t> MaskPattern(int pattern, size_t n, Rng& rng) {
  static constexpr double kDensity[] = {0.0, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0};
  std::vector<uint8_t> mask(n, 0);
  if (pattern < 7) {
    for (uint8_t& m : mask) {
      // Nonzero mask bytes other than 1 are "specified" too.
      m = rng.Bernoulli(kDensity[pattern]) ? (rng.Bernoulli(0.5) ? 1 : 7) : 0;
    }
    return mask;
  }
  for (size_t k = 0; k < n; ++k) mask[k] = (k % 97) < 5 ? 1 : 0;
  return mask;
}
constexpr int kMaskPatterns = 8;

// Unspecified positions carry poison (nan, +-inf, denormals): a
// gathered run may hold them past its end, where no lane may take them,
// and a run must never contain them.
std::vector<double> PoisonedValues(const std::vector<uint8_t>& mask,
                                   Rng& rng) {
  static const double kPoison[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(), -1e-310};
  std::vector<double> values(mask.size());
  for (size_t k = 0; k < mask.size(); ++k) {
    values[k] = mask[k] ? rng.Uniform(-10.0, 10.0) : kPoison[k % 5];
  }
  return values;
}

// A holey row as the pane stores it (src/core/cluster_workspace.h): the
// specified entries of `values` left-packed with their positions as
// slots. kRunReadPad entries follow the run, as in the pane: poison
// values, and slots that index one past the end of the row's
// column-base array, so a vector tail that let either reach a load or a
// lane would fail the bit comparison or the sanitizer.
struct PaneRun {
  std::vector<double> values;
  std::vector<uint16_t> slots;
  size_t len = 0;
};

PaneRun MakeRun(const std::vector<double>& values,
                const std::vector<uint8_t>& mask) {
  static const double kPoison[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), -1e-310};
  PaneRun run;
  for (size_t k = 0; k < mask.size(); ++k) {
    if (!mask[k]) continue;
    run.values.push_back(values[k]);
    run.slots.push_back(static_cast<uint16_t>(k));
  }
  run.len = run.values.size();
  for (size_t t = 0; t < kRunReadPad; ++t) {
    run.values.push_back(kPoison[t % 4]);
    run.slots.push_back(static_cast<uint16_t>(mask.size()));
  }
  return run;
}

// A row as a test pane holds it: the full row, its mask and its base.
struct TestRow {
  std::vector<double> values;
  std::vector<uint8_t> mask;
  double row_base = 0.0;
};

TestRow RandomRow(size_t n, double density, Rng& rng) {
  TestRow row;
  row.mask.resize(n);
  for (uint8_t& m : row.mask) m = rng.Bernoulli(density) ? 1 : 0;
  row.values = PoisonedValues(row.mask, rng);
  row.row_base = rng.Uniform(-2.0, 2.0);
  return row;
}

// A pane laid out as PackedPane lays it out (src/core/cluster_workspace.h):
// each row's run in its own physical row, physical rows in reverse
// logical order behind row_slots, poison values and out-of-range slots
// between a run's end and the stride, and kRunReadPad more past the last
// physical row. A scan that read a dense row past its end, or let padding
// reach a lane or a base load, fails the bit comparison or the sanitizer.
struct TestPane {
  std::vector<double> values;
  std::vector<uint16_t> slots;
  std::vector<uint32_t> run_len;
  std::vector<double> row_base;
  std::vector<uint32_t> row_slots;
  size_t num_cols = 0;
  size_t stride = 0;

  PaneScan Scan(const std::vector<double>& col_bases, double cluster_base,
                size_t skip) const {
    PaneScan scan;
    scan.values = values.data();
    scan.slots = slots.data();
    scan.run_len = run_len.data();
    scan.row_base = row_base.data();
    scan.row_slots = row_slots.data();
    scan.rows = row_slots.size();
    scan.num_cols = num_cols;
    scan.stride = stride;
    scan.skip = skip;
    scan.col_bases = col_bases.data();
    scan.cluster_base = cluster_base;
    return scan;
  }
};

TestPane MakePane(const std::vector<TestRow>& rows, size_t n) {
  TestPane pane;
  pane.num_cols = n;
  pane.stride = n + 3;
  size_t phys_rows = rows.size();
  pane.values.assign(phys_rows * pane.stride + kRunReadPad,
                     std::numeric_limits<double>::quiet_NaN());
  pane.slots.assign(pane.values.size(), static_cast<uint16_t>(n));
  pane.run_len.resize(phys_rows);
  pane.row_base.resize(phys_rows);
  for (size_t r = 0; r < rows.size(); ++r) {
    size_t phys = phys_rows - 1 - r;
    pane.row_slots.push_back(static_cast<uint32_t>(phys));
    PaneRun run = MakeRun(rows[r].values, rows[r].mask);
    std::copy(run.values.begin(), run.values.begin() + run.len,
              pane.values.begin() + phys * pane.stride);
    std::copy(run.slots.begin(), run.slots.begin() + run.len,
              pane.slots.begin() + phys * pane.stride);
    pane.run_len[phys] = static_cast<uint32_t>(run.len);
    pane.row_base[phys] = rows[r].row_base;
  }
  return pane;
}

// The skip loop's pane scan: every row but `skip`, then `added` (if
// any), each reduced from fresh lanes and summed in that order.
template <bool kSquared>
PaneSum SkipLoopPaneSum(const std::vector<TestRow>& rows, size_t skip,
                        const TestRow* added,
                        const std::vector<double>& col_bases,
                        double cluster_base) {
  size_t n = col_bases.size();
  PaneSum out;
  auto add_row = [&](const TestRow& row) {
    LaneAcc acc;
    SkipLoopReference<kSquared>(row.values.data(), row.mask.data(), nullptr,
                                col_bases.data(), n, row.row_base,
                                cluster_base, acc);
    out.sum += acc.Reduce();
    if (acc.p == n) out.dense_entries += n;
  };
  for (size_t r = 0; r < rows.size(); ++r) {
    if (r != skip) add_row(rows[r]);
  }
  if (added != nullptr) add_row(*added);
  return out;
}

// The pane-scan slot of `table` against the skip loop, over a pane of
// `rows` with every skip position (and none) and with no trailing row or
// each row gathered as the trailing row. The trailing row is gathered
// from the full row by GatherRun into a scratch run padded like a pane
// run, as the row-toggle kernel gathers an added row.
template <bool kSquared>
void CheckPaneScan(const SimdKernels& table, const std::vector<TestRow>& rows,
                   const std::vector<double>& col_bases, double cluster_base,
                   const std::string& label) {
  size_t n = col_bases.size();
  TestPane pane = MakePane(rows, n);
  auto scan_pane = kSquared ? table.scan_pane_sq : table.scan_pane_abs;
  std::vector<uint32_t> cols(n);
  for (size_t idx = 0; idx < n; ++idx) cols[idx] = static_cast<uint32_t>(idx);
  for (size_t skip = 0; skip <= rows.size(); ++skip) {
    for (size_t a = 0; a <= rows.size(); ++a) {
      const TestRow* added = a < rows.size() ? &rows[a] : nullptr;
      PaneScan scan = pane.Scan(col_bases, cluster_base, skip);
      std::vector<double> run_values(n + kRunReadPad,
                                     -std::numeric_limits<double>::infinity());
      std::vector<uint16_t> run_slots(n + kRunReadPad,
                                      static_cast<uint16_t>(n));
      if (added != nullptr) {
        scan.added_values = run_values.data();
        scan.added_slots = run_slots.data();
        scan.added_len =
            GatherRun(added->values.data(), added->mask.data(), cols.data(),
                      n, run_values.data(), run_slots.data());
        scan.added_row_base = added->row_base;
      }
      PaneSum want = SkipLoopPaneSum<kSquared>(rows, skip, added, col_bases,
                                               cluster_base);
      PaneSum got = scan_pane(scan);
      ASSERT_TRUE(SameBits(want.sum, got.sum))
          << label << " " << table.name << " skip=" << skip
          << " added=" << a;
      ASSERT_EQ(want.dense_entries, got.dense_entries)
          << label << " " << table.name << " skip=" << skip
          << " added=" << a;
    }
  }
}

// Both slots of `table` that read `row`'s run against the skip loop over
// the full row: the carried run pass from every lane phase (with
// distinct lane contents), and the pane scan over a pane that holds the
// row between a dense row and another holey one.
template <bool kSquared>
void CheckRunSlots(const SimdKernels& table, const TestRow& row,
                   const std::vector<double>& col_bases, double cluster_base,
                   Rng& rng, const std::string& label) {
  size_t n = row.values.size();
  PaneRun run = MakeRun(row.values, row.mask);
  auto seg = kSquared ? table.seg_run_sq : table.seg_run_abs;
  for (size_t phase = 0; phase < 4; ++phase) {
    LaneAcc ref, scalar, dispatched;
    for (size_t l = 0; l < 4; ++l) {
      ref.l[l] = scalar.l[l] = dispatched.l[l] =
          static_cast<double>(l + 1) * 0.375;
    }
    ref.p = scalar.p = dispatched.p = phase;
    SkipLoopReference<kSquared>(row.values.data(), row.mask.data(), nullptr,
                                col_bases.data(), n, row.row_base,
                                cluster_base, ref);
    SegPassRunScalar<kSquared>(run.values.data(), run.slots.data(),
                               col_bases.data(), run.len, row.row_base,
                               cluster_base, scalar);
    seg(run.values.data(), run.slots.data(), col_bases.data(), run.len,
        row.row_base, cluster_base, dispatched);
    ASSERT_TRUE(SameBits(ref, scalar)) << label << " scalar phase=" << phase;
    ASSERT_TRUE(SameBits(ref, dispatched))
        << label << " " << table.name << " phase=" << phase;
  }
  std::vector<TestRow> rows = {RandomRow(n, 1.0, rng), row,
                               RandomRow(n, 0.5, rng)};
  CheckPaneScan<kSquared>(table, rows, col_bases, cluster_base, label);
}

// The scalar and best tables each as the other sees them: the kernel
// table at --simd=off and at auto.
std::vector<const SimdKernels*> ScalarAndBestTables() {
  std::vector<const SimdKernels*> tables;
  {
    ScopedSimdMode off(SimdMode::kOff);
    tables.push_back(&ActiveSimdKernels());
  }
  ScopedSimdMode on(SimdMode::kAuto);
  tables.push_back(&ActiveSimdKernels());
  return tables;
}

// The run slots and the pane-scan slot of both the scalar and the best
// table reproduce the skip loop over the full row bit for bit, for every
// run length 0-9 and 63-65 (the vector body's group boundaries and the
// branch-free tail's 0-3 live lanes), with 0, 1 and many holes between
// the entries, every starting lane phase, and both norms. The pane scan
// sees the row in a three-row pane beside a dense and a holey row, with
// every skip position, and as a gathered trailing row.
TEST(SimdDispatchTest, RunSlotsBitIdenticalToSkipLoop) {
  std::vector<const SimdKernels*> tables = ScalarAndBestTables();
  Rng rng(47);
  std::vector<size_t> lengths = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65};
  for (size_t len : lengths) {
    for (size_t holes : {size_t{0}, size_t{1}, size_t{2}, len / 2 + 3}) {
      size_t n = len + holes;
      if (n == 0) continue;  // a scan never runs without pane columns
      TestRow row;
      row.mask.assign(n, 1);
      for (size_t pos : rng.SampleWithoutReplacement(n, holes)) {
        row.mask[pos] = 0;
      }
      row.values = PoisonedValues(row.mask, rng);
      std::vector<double> col_bases(n);
      for (double& b : col_bases) b = rng.Uniform(-2.0, 2.0);
      row.row_base = rng.Uniform(-2.0, 2.0);
      double cluster_base = rng.Uniform(-1.0, 1.0);
      std::string label =
          "len=" + std::to_string(len) + " holes=" + std::to_string(holes);
      for (const SimdKernels* table : tables) {
        CheckRunSlots<false>(*table, row, col_bases, cluster_base, rng,
                             label + " abs");
        CheckRunSlots<true>(*table, row, col_bases, cluster_base, rng,
                            label + " sq");
      }
    }
  }
}

// The same contract over the mask shapes mining meets: row widths 1-200
// at densities 0-100% and long hole runs, so runs of every length up to
// 200 and every tail phase occur, in panes and as trailing rows.
TEST(SimdDispatchTest, RunSlotsBitIdenticalAcrossDensities) {
  std::vector<const SimdKernels*> tables = ScalarAndBestTables();
  Rng rng(61);
  for (size_t n = 1; n <= 200; ++n) {
    std::vector<double> col_bases(n);
    for (double& b : col_bases) b = rng.Uniform(-2.0, 2.0);
    double cluster_base = rng.Uniform(-1.0, 1.0);
    for (int pattern = 0; pattern < kMaskPatterns; ++pattern) {
      TestRow row;
      row.mask = MaskPattern(pattern, n, rng);
      row.values = PoisonedValues(row.mask, rng);
      row.row_base = rng.Uniform(-2.0, 2.0);
      std::string label =
          "n=" + std::to_string(n) + " pattern=" + std::to_string(pattern);
      for (const SimdKernels* table : tables) {
        CheckRunSlots<false>(*table, row, col_bases, cluster_base, rng,
                             label + " abs");
        CheckRunSlots<true>(*table, row, col_bases, cluster_base, rng,
                            label + " sq");
      }
    }
  }
}

// `table`'s batched row-toggle scan against per-candidate single scans:
// each live candidate's sum and dense-entry count memcmp-equal to the
// scalar table's scan_pane_abs of its own PaneScan, and to `table`'s.
void CheckRowBatch(const SimdKernels& scalar, const SimdKernels& table,
                   const PaneScanBatch& batch, const std::string& label) {
  PaneSum got[kRowBatch];
  for (PaneSum& g : got) g.sum = std::numeric_limits<double>::quiet_NaN();
  table.scan_pane_rows4_abs(batch, got);
  for (size_t c = 0; c < batch.live; ++c) {
    for (const SimdKernels* single : {&scalar, &table}) {
      PaneSum want = single->scan_pane_abs(batch.scans[c]);
      ASSERT_TRUE(SameBits(want.sum, got[c].sum))
          << label << " " << table.name << " vs " << single->name
          << " candidate " << c << ": " << want.sum << " vs " << got[c].sum;
      ASSERT_EQ(std::memcmp(&want.dense_entries, &got[c].dense_entries,
                            sizeof(size_t)),
                0)
          << label << " " << table.name << " vs " << single->name
          << " candidate " << c << ": dense " << want.dense_entries
          << " vs " << got[c].dense_entries;
    }
  }
}

// The batched row-toggle slot of the scalar and best tables reproduces
// one scan_pane_abs per candidate bit for bit: 1-4 live candidates,
// removals (skips at the first, a middle and the last logical row) mixed
// with additions (a gathered trailing row, empty ones included), on
// dense, holey and near-empty panes of 1-70 columns whose padding and
// stride slack hold poison, with the batch's dead base lanes poisoned.
TEST(SimdDispatchTest, RowBatchBitIdenticalToSingleScans) {
  std::vector<const SimdKernels*> tables = ScalarAndBestTables();
  Rng rng(67);
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  for (size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 64u, 70u}) {
    for (double density : {1.0, 0.7, 0.3, 0.0}) {
      for (size_t height : {1u, 2u, 5u, 9u}) {
        std::vector<TestRow> rows;
        for (size_t r = 0; r < height; ++r) {
          // Mixed panes: mostly `density`, with a dense and an empty row.
          double d = r == 1 ? 1.0 : (r == 3 ? 0.0 : density);
          rows.push_back(RandomRow(n, d, rng));
        }
        TestPane pane = MakePane(rows, n);
        std::vector<uint32_t> cols(n);
        for (size_t idx = 0; idx < n; ++idx) {
          cols[idx] = static_cast<uint32_t>(idx);
        }
        // Candidates: skips at the first and last logical row and in the
        // middle, and additions of a dense, a holey and an empty row.
        std::vector<TestRow> added = {RandomRow(n, 1.0, rng),
                                      RandomRow(n, 0.5, rng),
                                      RandomRow(n, 0.0, rng)};
        struct Run {
          std::vector<double> values;
          std::vector<uint16_t> slots;
          size_t len = 0;
        };
        std::vector<Run> runs(added.size());
        for (size_t a = 0; a < added.size(); ++a) {
          runs[a].values.assign(n + kRunReadPad, kNan);
          runs[a].slots.assign(n + kRunReadPad, static_cast<uint16_t>(n));
          runs[a].len = GatherRun(added[a].values.data(),
                                  added[a].mask.data(), cols.data(), n,
                                  runs[a].values.data(),
                                  runs[a].slots.data());
        }
        std::vector<size_t> skips = {0, height - 1, height / 2};
        for (size_t live = 1; live <= kRowBatch; ++live) {
          for (size_t variant = 0; variant < 6; ++variant) {
            PaneScanBatch batch;
            batch.live = live;
            std::vector<std::vector<double>> bases(kRowBatch,
                                                   std::vector<double>(n));
            std::vector<double> bases4(n * kRowBatch, kNan);
            for (size_t c = 0; c < live; ++c) {
              for (double& b : bases[c]) b = rng.Uniform(-2.0, 2.0);
              for (size_t idx = 0; idx < n; ++idx) {
                bases4[idx * kRowBatch + c] = bases[c][idx];
              }
              PaneScan& scan = batch.scans[c];
              scan = pane.Scan(bases[c], rng.Uniform(-1.0, 1.0), SIZE_MAX);
              // Alternate removals and additions, rotating by variant.
              size_t pick = c + variant;
              if (pick % 2 == 0) {
                scan.skip = skips[(pick / 2) % skips.size()];
              } else {
                const Run& run = runs[(pick / 2) % runs.size()];
                scan.added_values = run.values.data();
                scan.added_slots = run.slots.data();
                scan.added_len = run.len;
                scan.added_row_base = rng.Uniform(-2.0, 2.0);
              }
            }
            batch.bases4 = bases4.data();
            std::string label = "n=" + std::to_string(n) +
                                " density=" + std::to_string(density) +
                                " height=" + std::to_string(height) +
                                " live=" + std::to_string(live) +
                                " variant=" + std::to_string(variant);
            for (const SimdKernels* table : tables) {
              CheckRowBatch(*tables.front(), *table, batch, label);
            }
          }
        }
      }
    }
  }
}

// The column-toggle kernel's run shapes: on removal the run splits where
// its slots pass the removed column, whose entry (if specified) is
// skipped; on addition the whole run is followed by one appended entry.
// Both with the phase carried between calls, against one skip loop over
// the post-toggle visit sequence.
TEST(SimdDispatchTest, SplitRunSegmentsBitIdenticalToOnePass) {
  Rng rng(53);
  for (const SimdKernels* table : ScalarAndBestTables()) {
    for (size_t n : {1u, 2u, 5u, 9u, 64u, 66u, 130u, 200u}) {
      for (int pattern = 0; pattern < kMaskPatterns; ++pattern) {
        std::vector<uint8_t> mask = MaskPattern(pattern, n + 1, rng);
        std::vector<double> values = PoisonedValues(mask, rng);
        std::vector<double> col_bases(n + 1);
        for (double& b : col_bases) b = rng.Uniform(-2.0, 2.0);
        double row_base = rng.Uniform(-2.0, 2.0);
        double cluster_base = rng.Uniform(-1.0, 1.0);
        // Pane row: the first n positions; position n is the appended
        // column of an addition.
        std::vector<uint8_t> pane_mask(mask.begin(), mask.begin() + n);
        PaneRun run = MakeRun(values, pane_mask);
        std::string label = std::string(table->name) + " n=" +
                            std::to_string(n) + " pattern=" +
                            std::to_string(pattern);
        // Removal of pane column jj.
        for (size_t jj : {size_t{0}, size_t{1}, n / 3, n - 1}) {
          if (jj >= n) continue;
          std::vector<uint8_t> visit = pane_mask;
          visit[jj] = 0;
          LaneAcc ref_abs, ref_sq, abs, sq;
          SkipLoopReference<false>(values.data(), visit.data(), nullptr,
                                   col_bases.data(), n, row_base,
                                   cluster_base, ref_abs);
          SkipLoopReference<true>(values.data(), visit.data(), nullptr,
                                  col_bases.data(), n, row_base, cluster_base,
                                  ref_sq);
          size_t split = static_cast<size_t>(
              std::lower_bound(run.slots.begin(),
                               run.slots.begin() +
                                   static_cast<std::ptrdiff_t>(run.len),
                               jj) -
              run.slots.begin());
          size_t rest = split + (pane_mask[jj] ? 1 : 0);
          for (auto [pos, len] :
               {std::pair{size_t{0}, split}, {rest, run.len - rest}}) {
            table->seg_run_abs(run.values.data() + pos, run.slots.data() + pos,
                               col_bases.data(), len, row_base, cluster_base,
                               abs);
            table->seg_run_sq(run.values.data() + pos, run.slots.data() + pos,
                              col_bases.data(), len, row_base, cluster_base,
                              sq);
          }
          ASSERT_TRUE(SameBits(ref_abs, abs)) << label << " jj=" << jj;
          ASSERT_TRUE(SameBits(ref_sq, sq)) << label << " jj=" << jj;
        }
        // Addition: the whole run, then the appended entry (as the
        // kernel visits it, only when specified).
        LaneAcc ref_abs, ref_sq, abs, sq;
        SkipLoopReference<false>(values.data(), mask.data(), nullptr,
                                 col_bases.data(), n + 1, row_base,
                                 cluster_base, ref_abs);
        SkipLoopReference<true>(values.data(), mask.data(), nullptr,
                                col_bases.data(), n + 1, row_base,
                                cluster_base, ref_sq);
        table->seg_run_abs(run.values.data(), run.slots.data(),
                           col_bases.data(), run.len, row_base, cluster_base,
                           abs);
        table->seg_run_sq(run.values.data(), run.slots.data(),
                          col_bases.data(), run.len, row_base, cluster_base,
                          sq);
        SkipLoopReference<false>(values.data() + n, mask.data() + n, nullptr,
                                 col_bases.data() + n, 1, row_base,
                                 cluster_base, abs);
        SkipLoopReference<true>(values.data() + n, mask.data() + n, nullptr,
                                col_bases.data() + n, 1, row_base,
                                cluster_base, sq);
        ASSERT_TRUE(SameBits(ref_abs, abs)) << label << " append";
        ASSERT_TRUE(SameBits(ref_sq, sq)) << label << " append";
        ASSERT_TRUE(SameBits(ref_abs.Reduce(), abs.Reduce())) << label;
      }
    }
  }
}

// Writes `m` to `path` as a .dcm and rewrites its unspecified cells, in
// both value planes, with nan, +-inf and denormals; the payload checksum
// is left stale (only DcmVerify::kFull reads it, and the default open
// maps the file without). Returns the poisoned file opened on the mmap
// backend.
DataMatrix PoisonedDcm(const DataMatrix& m, const std::string& path) {
  WriteDcmFile(m, path);
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  storage::DcmHeader h =
      storage::ParseDcmHeader(bytes.data(), bytes.size(), path);
  auto* buf = reinterpret_cast<uint8_t*>(bytes.data());
  const double kPoison[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::denorm_min(),
                            -std::numeric_limits<double>::denorm_min() * 7};
  size_t poisoned = 0;
  for (uint64_t i = 0; i < h.rows; ++i) {
    for (uint64_t j = 0; j < h.cols; ++j) {
      uint64_t rm = i * h.cols + j;
      uint64_t cm = j * h.rows + i;
      EXPECT_EQ(buf[h.off_mask_rm + rm] != 0, buf[h.off_mask_cm + cm] != 0);
      if (buf[h.off_mask_rm + rm] != 0) continue;
      const double& v = kPoison[poisoned++ % 5];
      std::memcpy(buf + h.off_values_rm + rm * sizeof(double), &v,
                  sizeof(double));
      std::memcpy(buf + h.off_values_cm + cm * sizeof(double), &v,
                  sizeof(double));
    }
  }
  EXPECT_GT(poisoned, 0u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  return ReadDcmFile(path, MatrixBackend::kMmap);
}

// A 48 x 70 matrix whose rows cycle through the mask patterns (empty,
// holey, full and long hole runs), with poison in every unspecified
// cell.
DataMatrix AddedRowMatrix(const std::string& path) {
  constexpr size_t kRows = 48;
  constexpr size_t kCols = 70;
  Rng rng(67);
  DataMatrix m(kRows, kCols);
  for (size_t i = 0; i < kRows; ++i) {
    std::vector<uint8_t> mask =
        MaskPattern(static_cast<int>(i % kMaskPatterns), kCols, rng);
    for (size_t j = 0; j < kCols; ++j) {
      if (mask[j]) {
        m.Set(i, j, rng.Uniform(-10.0, 10.0));
      } else {
        m.SetMissing(i, j);
      }
    }
  }
  return PoisonedDcm(m, path);
}

// Column sets the added-row kernel meets: a single column, a few, and
// widths around the vector group and a chunk of 64.
std::vector<std::vector<size_t>> AddedRowColumnSets(size_t cols, Rng& rng) {
  std::vector<std::vector<size_t>> sets;
  for (size_t n : {1u, 3u, 7u, 63u, 64u, 65u, 70u}) {
    sets.push_back(rng.SampleWithoutReplacement(cols, n));
  }
  return sets;
}

// The skip loop's after-toggle residue of adding row i to `ws`'s
// cluster: member rows in order, then row i, each reduced from fresh
// lanes with the bases of the toggled cluster, over its volume.
template <bool kSquared>
double SkipLoopResidueAfterAdding(const ClusterWorkspace& ws, size_t i) {
  ClusterWorkspace toggled = ws;
  toggled.ToggleRow(i);
  const ClusterStats& stats = toggled.stats();
  if (stats.Volume() == 0) return 0.0;
  const DataMatrix& m = ws.matrix();
  const auto& cols = ws.cluster().col_ids();
  std::vector<double> col_bases;
  for (uint32_t j : cols) col_bases.push_back(stats.ColBase(j));
  std::vector<uint32_t> rows = ws.cluster().row_ids();
  rows.push_back(static_cast<uint32_t>(i));
  double sum = 0.0;
  for (uint32_t r : rows) {
    LaneAcc acc;
    SkipLoopReference<kSquared>(m.RowValues(r).data(), m.RowMask(r).data(),
                                cols.data(), col_bases.data(), cols.size(),
                                stats.RowBase(r), stats.ClusterBase(), acc);
    sum += acc.Reduce();
  }
  return sum / stats.Volume();
}

// An added row (outside the pane, gathered from poisoned matrix cells
// into a scratch run and scanned as the pane scan's trailing row): the
// after-toggle residue of every non-member row, over clusters of every
// column width, is the skip loop's to the bit, at both norms and both
// SIMD modes.
TEST(SimdDispatchTest, GatheredMaskedRowPassBitIdenticalToSkipLoop) {
  DataMatrix m = AddedRowMatrix(testing::TempDir() + "/simd_added_row.dcm");
  Rng rng(59);
  for (const std::vector<size_t>& cols : AddedRowColumnSets(m.cols(), rng)) {
    std::vector<size_t> members = {2, 9, 10, 21, 30, 41};
    ClusterWorkspace ws(m, Cluster::FromMembers(m.rows(), m.cols(), members,
                                                cols));
    for (SimdMode mode : {SimdMode::kOff, SimdMode::kAuto}) {
      ScopedSimdMode scoped(mode);
      ResidueEngine abs_engine(ResidueNorm::kMeanAbsolute);
      ResidueEngine sq_engine(ResidueNorm::kMeanSquared);
      for (size_t i = 0; i < m.rows(); ++i) {
        if (ws.cluster().HasRow(i)) continue;
        std::string label = std::string(ActiveSimdPath()) + " n=" +
                            std::to_string(cols.size()) + " row " +
                            std::to_string(i);
        ASSERT_TRUE(SameBits(SkipLoopResidueAfterAdding<false>(ws, i),
                             abs_engine.ResidueAfterToggleRow(ws, i)))
            << label << " abs";
        ASSERT_TRUE(SameBits(SkipLoopResidueAfterAdding<true>(ws, i),
                             sq_engine.ResidueAfterToggleRow(ws, i)))
            << label << " sq";
      }
    }
  }
}

TEST(SimdDispatchTest, OffPinsScalarAutoPicksDetectedBest) {
  {
    ScopedSimdMode off(SimdMode::kOff);
    EXPECT_STREQ(ActiveSimdPath(), "scalar");
  }
  ScopedSimdMode on(SimdMode::kAuto);
  std::string features = DetectedCpuFeatures();
  const char* path = ActiveSimdPath();
  if (Avx2KernelsOrNull() != nullptr &&
      features.find("avx2") != std::string::npos) {
    EXPECT_STREQ(path, "avx2");
  } else {
    EXPECT_STREQ(path, "scalar");
  }
}

TEST(SimdDispatchTest, SegKernelsBitIdenticalToScalarAcrossPhases) {
  ScopedSimdMode on(SimdMode::kAuto);
  const SimdKernels& simd = ActiveSimdKernels();
  Rng rng(41);
  // Lengths straddle the peel/unroll/tail boundaries; phases cover all
  // four lane offsets; values include negatives so the |r| path's
  // sign-bit handling is exercised.
  for (size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 15u, 64u, 257u}) {
    std::vector<double> values(n), col_bases(n);
    for (size_t k = 0; k < n; ++k) {
      values[k] = rng.Uniform(-10.0, 10.0);
      col_bases[k] = rng.Uniform(-2.0, 2.0);
    }
    double row_base = rng.Uniform(-2.0, 2.0);
    double cluster_base = rng.Uniform(-1.0, 1.0);
    for (size_t phase = 0; phase < 4; ++phase) {
      LaneAcc scalar_acc;
      LaneAcc simd_abs_acc;
      LaneAcc simd_sq_acc;
      LaneAcc scalar_sq_acc;
      // Pre-seed distinct lane contents and the phase so the kernels
      // must carry both faithfully.
      for (size_t l = 0; l < 4; ++l) {
        double seed_value = static_cast<double>(l + 1) * 0.125;
        scalar_acc.l[l] = simd_abs_acc.l[l] = seed_value;
        scalar_sq_acc.l[l] = simd_sq_acc.l[l] = seed_value;
      }
      scalar_acc.p = simd_abs_acc.p = phase;
      scalar_sq_acc.p = simd_sq_acc.p = phase;

      SegPassDenseScalar<false>(values.data(), col_bases.data(), n, row_base,
                                cluster_base, scalar_acc);
      simd.seg_dense_abs(values.data(), col_bases.data(), n, row_base,
                         cluster_base, simd_abs_acc);
      SegPassDenseScalar<true>(values.data(), col_bases.data(), n, row_base,
                               cluster_base, scalar_sq_acc);
      simd.seg_dense_sq(values.data(), col_bases.data(), n, row_base,
                        cluster_base, simd_sq_acc);

      ASSERT_EQ(scalar_acc.p, simd_abs_acc.p) << "n=" << n << " p=" << phase;
      for (size_t l = 0; l < 4; ++l) {
        // Bitwise, not just numeric, equality.
        ASSERT_EQ(0, std::memcmp(&scalar_acc.l[l], &simd_abs_acc.l[l],
                                 sizeof(double)))
            << "abs lane " << l << " n=" << n << " phase=" << phase;
        ASSERT_EQ(0, std::memcmp(&scalar_sq_acc.l[l], &simd_sq_acc.l[l],
                                 sizeof(double)))
            << "sq lane " << l << " n=" << n << " phase=" << phase;
      }
    }
  }
}

// An added row's contribution is the bits the pane pass gives the same
// entries once the row is a member: with the row joining last in row
// order, the after-toggle residue of adding it equals a real toggle
// plus a rescan of the patched pane, to the bit, dense and holey rows,
// at both norms and both SIMD modes.
TEST(SimdDispatchTest, GatheredRowPassBitIdenticalToPanePass) {
  DataMatrix m = AddedRowMatrix(testing::TempDir() + "/simd_added_pane.dcm");
  Rng rng(43);
  for (const std::vector<size_t>& cols : AddedRowColumnSets(m.cols(), rng)) {
    // Members from the first half, so every candidate row joins last.
    std::vector<size_t> members = {0, 3, 5, 11, 16, 17, 22};
    ClusterWorkspace ws(m, Cluster::FromMembers(m.rows(), m.cols(), members,
                                                cols));
    for (SimdMode mode : {SimdMode::kOff, SimdMode::kAuto}) {
      ScopedSimdMode scoped(mode);
      for (ResidueNorm norm :
           {ResidueNorm::kMeanAbsolute, ResidueNorm::kMeanSquared}) {
        ResidueEngine engine(norm);
        for (size_t i = members.back() + 1; i < m.rows(); ++i) {
          double predicted = engine.ResidueAfterToggleRow(ws, i);
          ClusterWorkspace toggled = ws;
          toggled.ToggleRow(i);
          ASSERT_TRUE(SameBits(predicted, engine.Residue(toggled)))
              << ActiveSimdPath() << " n=" << cols.size() << " row " << i
              << (norm == ResidueNorm::kMeanSquared ? " sq" : " abs");
        }
      }
    }
  }
}

SyntheticDataset CmpData(double missing_fraction) {
  SyntheticConfig config;
  config.rows = 120;
  config.cols = 48;
  config.num_clusters = 3;
  config.volume_mean = 150;
  config.col_fraction = 0.25;
  config.noise_stddev = 0.5;
  config.missing_fraction = missing_fraction;
  config.seed = 311;
  return GenerateSynthetic(config);
}

void ExpectIdenticalResults(const FlocResult& off, const FlocResult& on,
                            const std::string& label) {
  ASSERT_EQ(off.iterations, on.iterations) << label;
  const std::vector<obs::IterationTelemetry>& off_log =
      off.telemetry.iteration_log;
  const std::vector<obs::IterationTelemetry>& on_log =
      on.telemetry.iteration_log;
  ASSERT_EQ(off_log.size(), on_log.size()) << label;
  for (size_t t = 0; t < off_log.size(); ++t) {
    EXPECT_EQ(off_log[t].actions_applied, on_log[t].actions_applied)
        << label << " iteration " << t;
    EXPECT_DOUBLE_EQ(off_log[t].best_average_score,
                     on_log[t].best_average_score)
        << label << " iteration " << t;
  }
  ASSERT_EQ(off.clusters.size(), on.clusters.size()) << label;
  for (size_t c = 0; c < off.clusters.size(); ++c) {
    EXPECT_TRUE(off.clusters[c] == on.clusters[c]) << label << " cluster "
                                                   << c;
    EXPECT_DOUBLE_EQ(off.residues[c], on.residues[c]) << label << " cluster "
                                                      << c;
  }
  EXPECT_DOUBLE_EQ(off.average_residue, on.average_residue) << label;
}

// Full mining runs, simd off vs auto, across the determinism matrix:
// threads {1, 8} x dense/sparse x backend {mem, mmap} x audit on/off.
TEST(SimdDispatchTest, FlocBitIdenticalSimdOffVsAuto) {
  for (double missing : {0.0, 0.3}) {
    SyntheticDataset data = CmpData(missing);
    // Round-trip through .dcm so the mmap leg reads the same planes.
    std::string dcm_path = testing::TempDir() + "/simd_cmp_" +
                           (missing > 0.0 ? "sparse" : "dense") + ".dcm";
    WriteDcmFile(data.matrix, dcm_path);
    DataMatrix mapped = ReadDcmFile(dcm_path, MatrixBackend::kMmap);
    for (const DataMatrix* matrix : {&data.matrix, &mapped}) {
      for (int threads : {1, 8}) {
        for (bool audit : {false, true}) {
          FlocConfig config;
          config.num_clusters = 6;
          config.rng_seed = 17;
          config.threads = threads;
          config.audit = audit;
          config.telemetry = obs::TelemetryLevel::kSummary;
          std::string label = std::string(matrix->BackendName()) +
                              (missing > 0.0 ? " sparse" : " dense") +
                              " threads=" + std::to_string(threads) +
                              " audit=" + (audit ? "1" : "0");
          FlocResult off;
          {
            ScopedSimdMode mode(SimdMode::kOff);
            off = Floc(config).Run(*matrix);
          }
          FlocResult on;
          {
            ScopedSimdMode mode(SimdMode::kAuto);
            on = Floc(config).Run(*matrix);
          }
          ExpectIdenticalResults(off, on, label);
        }
      }
    }
  }
}

// An unspecified cell's payload must never reach a result: pane runs
// hold only specified entries, and an added row's gather copies
// unspecified cells into its scratch run past the run's end. A .dcm
// whose unspecified cells hold nan, +-inf and denormals (PoisonedDcm)
// must mine exactly what the zero-filled file mines, at either SIMD
// mode and thread count.
TEST(SimdDispatchTest, UnspecifiedPayloadNeverReachesAResult) {
  SyntheticDataset data = CmpData(0.3);
  std::string clean_path = testing::TempDir() + "/simd_payload_clean.dcm";
  std::string poisoned_path =
      testing::TempDir() + "/simd_payload_poisoned.dcm";
  WriteDcmFile(data.matrix, clean_path);
  DataMatrix dirty = PoisonedDcm(data.matrix, poisoned_path);
  ASSERT_FALSE(HasFailure());

  DataMatrix clean = ReadDcmFile(clean_path, MatrixBackend::kMmap);
  for (SimdMode mode : {SimdMode::kAuto, SimdMode::kOff}) {
    ScopedSimdMode scoped(mode);
    for (int threads : {1, 4}) {
      FlocConfig config;
      config.num_clusters = 6;
      config.rng_seed = 19;
      config.threads = threads;
      config.telemetry = obs::TelemetryLevel::kSummary;
      std::string label = std::string(ActiveSimdPath()) +
                          " threads=" + std::to_string(threads);
      FlocResult want = Floc(config).Run(clean);
      FlocResult got = Floc(config).Run(dirty);
      ExpectIdenticalResults(want, got, label);
      ASSERT_EQ(want.residues.size(), got.residues.size()) << label;
      for (size_t c = 0; c < want.residues.size(); ++c) {
        EXPECT_TRUE(SameBits(want.residues[c], got.residues[c]))
            << label << " cluster " << c;
      }
    }
  }
}

}  // namespace
}  // namespace deltaclus
