// Runtime CPU-feature dispatch for the gain kernels (whole-pane scans,
// column-toggle pane scans and their candidate-batched twins).
//
// The CPU is probed once (first use); the best available kernel table --
// AVX2 on x86-64 that reports it, the scalar bodies in
// src/core/residue_kernels.h otherwise -- is selected behind a
// function-pointer table that ResidueEngine's scans call through: one
// call per whole-pane scan, per column-toggle scan, or per batch of up
// to four row-toggle or added-column candidates of one cluster. No row
// loop calls through the table.
// Every table implements the LaneAcc contract, so which one runs is
// bit-invisible: SIMD and scalar outputs are identical to the last bit,
// which is why the mode is NOT part of the result-affecting config
// fingerprint (like --threads / --backend).
//
// Mode selection follows the --backend pattern: the CLI translates its
// --simd=auto|off flag and calls SetSimdMode before mining starts.
// `off` pins the scalar table -- the lever the scalar-vs-SIMD cmp tests
// and the CI determinism matrix pull.
#ifndef DELTACLUS_CORE_SIMD_DISPATCH_H_
#define DELTACLUS_CORE_SIMD_DISPATCH_H_

#include <cstddef>
#include <cstdint>

#include "src/core/residue_kernels.h"

namespace deltaclus {

/// How the kernel table is chosen. kAuto picks the best ISA the CPU
/// reports; kOff pins the scalar reference table.
enum class SimdMode { kAuto, kOff };

/// A complete gain-kernel table for one ISA. scan_pane_* scan a whole
/// pane (PaneScan: every logical row but one left-out row, then an
/// optional trailing row outside the pane) in one call, each row from
/// fresh lanes, and return the rows' summed reductions and the
/// dense-entry count. scan_pane_col_* scan a column toggle of a pane
/// (PaneColScan: every row with its base adjusted by the column's entry,
/// one pane column left out or one column appended) the same way. _abs/_sq select the residue
/// norm (|r| vs r^2). The batch slots scan up to four candidates of one
/// pane in one pass and write out[c] for each live candidate, equal bit
/// for bit to the single scan of candidate c; each scalar table's batch
/// slot is exactly that loop of single scans.
///   scan_pane_rows4_abs  row toggles (PaneScanBatch, residue_kernels.h:
///                        the shared pane arrays, the candidates' column
///                        bases interleaved as bases4[slot * 4 + c],
///                        their cluster bases, left-out rows and
///                        trailing rows);
///   scan_pane_cols4_abs  added columns (PaneColScanBatch: each
///                        candidate's PaneColScan over the shared pane,
///                        column bases, row ids and row sums, with its
///                        own cluster base and added column).
/// There are no squared batches: FLOC mines under the mean absolute
/// residue.
///
/// Bounded tail: the scans may read up to four run entries (values
/// and slots) past any run's end, so every holder of a run keeps that
/// many readable past it (PackedPane and the engine's added-row scratch
/// pad their arrays; kRunReadPad), and col_bases must be non-empty.
/// Those entries never reach a result: their slots are masked to 0
/// before the base load and their contributions to +0.0 before the add.
struct SimdKernels {
  using ScanPaneFn = PaneSum (*)(const PaneScan& scan);
  using ScanPaneBatchFn = void (*)(const PaneScanBatch& batch, PaneSum* out);
  using ScanPaneColFn = PaneSum (*)(const PaneColScan& scan);
  using ScanPaneColBatchFn = void (*)(const PaneColScanBatch& batch,
                                      PaneSum* out);
  ScanPaneFn scan_pane_abs;
  ScanPaneFn scan_pane_sq;
  ScanPaneBatchFn scan_pane_rows4_abs;
  ScanPaneColFn scan_pane_col_abs;
  ScanPaneColFn scan_pane_col_sq;
  ScanPaneColBatchFn scan_pane_cols4_abs;
  const char* name;  ///< "scalar" | "avx2"
};

/// Sets the dispatch mode. Called once at CLI startup (before worker
/// threads exist) or by tests; result-neutral by the bit-identity
/// contract above.
void SetSimdMode(SimdMode mode);
SimdMode GetSimdMode();

/// The table the current mode selects. Cheap enough for per-scan reads.
const SimdKernels& ActiveSimdKernels();

/// Name of the table ActiveSimdKernels() currently returns.
const char* ActiveSimdPath();

/// Comma-separated ISA features the running CPU reports (e.g.
/// "sse2,sse4.2,avx,avx2"); "baseline" when nothing notable. Recorded
/// in every BENCH_*.json so trajectory records taken on different
/// machines stay comparable.
const char* DetectedCpuFeatures();

/// The AVX2 table, defined in its own translation unit (the only TU
/// compiled with vector-ISA flags; see src/CMakeLists.txt). Null when
/// the TU was built without AVX2. Returning a table does not imply the
/// CPU can run it -- dispatch checks the CPU feature first.
const SimdKernels* Avx2KernelsOrNull();

}  // namespace deltaclus

#endif  // DELTACLUS_CORE_SIMD_DISPATCH_H_
