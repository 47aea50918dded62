// MatrixStore: the storage layer that owns the data plane.
//
// A store holds the four *planes* of a dense matrix with missing
// entries -- row-major values, row-major mask, column-major values,
// column-major mask -- plus the per-row / per-column specified-entry
// counts and the total. Everything above this layer (DataMatrix and its
// consumers) reads the planes exclusively through the typed stride-1
// span accessors below; no caller outside src/storage/ ever touches a
// raw plane pointer (enforced by dclint's storage-raw-plane rule).
//
// Two backends implement the interface:
//   * InMemoryStore (src/storage/in_memory_store.h): heap vectors,
//     mutable, byte-identical to the pre-storage-layer DataMatrix;
//   * MmapStore (src/storage/mmap_store.h): a read-only view over a
//     versioned `.dcm` file (src/storage/dcm_format.h) mapped with
//     mmap(2) in O(header) time -- plane bytes are paged in on demand,
//     never copied.
//
// Because both backends expose the *same bytes* through the same span
// layout, every algorithm downstream is backend-blind: FLOC and the
// baselines produce bit-identical output whichever backend supplied the
// planes (tests/storage_test.cc pins this at 1, 2, and 8 threads).
#ifndef DELTACLUS_STORAGE_MATRIX_STORE_H_
#define DELTACLUS_STORAGE_MATRIX_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

namespace deltaclus::storage {

/// The four planes plus the count vectors, as raw pointers into
/// backend-owned memory. Only storage code constructs or reads one;
/// everything else goes through the MatrixStore span accessors.
struct MatrixPlanes {
  const double* values_rm = nullptr;   ///< rows*cols, row-major
  const uint8_t* mask_rm = nullptr;    ///< rows*cols, row-major, 1 = specified
  const double* values_cm = nullptr;   ///< rows*cols, column-major mirror
  const uint8_t* mask_cm = nullptr;    ///< rows*cols, column-major mirror
  const uint64_t* row_specified = nullptr;  ///< rows, per-row counts
  const uint64_t* col_specified = nullptr;  ///< cols, per-col counts
};

/// Abstract storage backend. Read accessors are non-virtual and inline
/// (they index the bound planes), so backend dispatch costs nothing in
/// hot loops; only mutation and lifecycle are virtual.
///
/// Thread contract: concurrent reads are always safe. Mutation
/// (Set/SetMissing on a mutable backend) is single-writer with no
/// concurrent readers, the same contract DataMatrix has always had --
/// matrices are built once, then read by many mining iterations.
class MatrixStore {
 public:
  virtual ~MatrixStore() = default;

  MatrixStore(const MatrixStore&) = delete;
  MatrixStore& operator=(const MatrixStore&) = delete;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t num_specified() const { return static_cast<size_t>(num_specified_); }

  /// Row i's values / mask: stride-1, length cols().
  std::span<const double> RowValues(size_t i) const {
    return {planes_.values_rm + i * cols_, cols_};
  }
  std::span<const uint8_t> RowMask(size_t i) const {
    return {planes_.mask_rm + i * cols_, cols_};
  }

  /// Column j's values / mask on the column-major mirror: stride-1,
  /// length rows().
  std::span<const double> ColValues(size_t j) const {
    return {planes_.values_cm + j * rows_, rows_};
  }
  std::span<const uint8_t> ColMask(size_t j) const {
    return {planes_.mask_cm + j * rows_, rows_};
  }

  /// Per-axis specified-entry counts, maintained by every mutation.
  std::span<const uint64_t> RowSpecifiedCounts() const {
    return {planes_.row_specified, rows_};
  }
  std::span<const uint64_t> ColSpecifiedCounts() const {
    return {planes_.col_specified, cols_};
  }

  bool IsSpecified(size_t i, size_t j) const {
    return planes_.mask_rm[i * cols_ + j] != 0;
  }
  double Value(size_t i, size_t j) const {
    return planes_.values_rm[i * cols_ + j];
  }

  /// Human-readable backend tag ("mem", "mmap"), for diagnostics and
  /// telemetry.
  virtual const char* BackendName() const = 0;

  /// True if Set/SetMissing are supported. Read-only backends (mmap)
  /// DC_CHECK-fail on mutation; DataMatrix materializes a mutable copy
  /// first (copy-on-write) so callers never hit that check.
  virtual bool Mutable() const = 0;

  /// Sets entry (i, j) to `value`, marking it specified, on all planes
  /// and counts. Mutable backends only.
  virtual void Set(size_t i, size_t j, double value) = 0;

  /// Marks entry (i, j) missing on all planes and counts. Mutable
  /// backends only.
  virtual void SetMissing(size_t i, size_t j) = 0;

  /// Deep-copies the planes into a fresh mutable in-memory store. The
  /// copy's bytes equal this store's bytes plane for plane.
  virtual std::shared_ptr<MatrixStore> CloneInMemory() const = 0;

 protected:
  MatrixStore(size_t rows, size_t cols) : rows_(rows), cols_(cols) {}

  /// Installs the plane pointers. Derived classes call this after
  /// allocating (or mapping, or copying) their backing memory.
  void BindPlanes(const MatrixPlanes& planes, uint64_t num_specified) {
    planes_ = planes;
    num_specified_ = num_specified;
  }

  uint64_t num_specified_ = 0;

 private:
  size_t rows_;
  size_t cols_;
  MatrixPlanes planes_;
};

}  // namespace deltaclus::storage

#endif  // DELTACLUS_STORAGE_MATRIX_STORE_H_
