// Runtime CPU-feature dispatch for the gain kernels (segment passes,
// whole-pane scans and batched row-toggle pane scans).
//
// The CPU is probed once (first use); the best available kernel table --
// AVX2 on x86-64 that reports it, the scalar bodies in
// src/core/residue_kernels.h otherwise -- is selected behind a
// function-pointer table that ResidueEngine's scans call through: one
// call per whole-pane scan, per batch of up to four row-toggle
// candidates of one cluster, or per segment in the column-toggle
// kernel.
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

/// A complete gain-kernel table for one ISA. seg_dense_* stream a
/// contiguous packed-pane slice into a caller-carried LaneAcc, and
/// seg_run_* a holey row's specified-entry run (values plus uint16
/// pane-column slots; residue_kernels.h), reading each entry's base
/// through its slot: the column-toggle kernel's split segments.
/// scan_pane_* scan a whole pane (PaneScan: every logical row but one
/// left-out row, then an optional trailing row outside the pane) in one
/// call, each row from fresh lanes, and return the rows' summed
/// reductions and the dense-entry count. _abs/_sq select the residue
/// norm (|r| vs r^2). scan_pane_rows4_abs scans up to four row-toggle
/// candidates of one pane in one pass (PaneScanBatch, residue_kernels.h:
/// the shared PaneScan arrays, the candidates' column bases interleaved
/// as bases4[slot * 4 + c], their cluster bases, left-out rows and
/// trailing rows) and writes out[c] for each live candidate, equal bit
/// for bit to scan_pane_abs(scans[c]); the scalar table's slot is
/// exactly that loop. There is no squared batch: FLOC mines under the
/// mean absolute residue.
///
/// Bounded tail: scan_pane_* may read up to four run entries (values
/// and slots) past any run's end, so every holder of a run keeps that
/// many readable past it (PackedPane and the engine's added-row scratch
/// pad their arrays; kRunReadPad), and col_bases must be non-empty.
/// Those entries never reach a result: their slots are masked to 0
/// before the base load and their contributions to +0.0 before the add.
struct SimdKernels {
  using SegDenseFn = void (*)(const double* values, const double* col_bases,
                              size_t n, double row_base, double cluster_base,
                              LaneAcc& acc);
  using SegRunFn = void (*)(const double* values, const uint16_t* slots,
                            const double* col_bases, size_t n,
                            double row_base, double cluster_base,
                            LaneAcc& acc);
  using ScanPaneFn = PaneSum (*)(const PaneScan& scan);
  using ScanPaneBatchFn = void (*)(const PaneScanBatch& batch, PaneSum* out);
  SegDenseFn seg_dense_abs;
  SegDenseFn seg_dense_sq;
  SegRunFn seg_run_abs;
  SegRunFn seg_run_sq;
  ScanPaneFn scan_pane_abs;
  ScanPaneFn scan_pane_sq;
  ScanPaneBatchFn scan_pane_rows4_abs;
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
