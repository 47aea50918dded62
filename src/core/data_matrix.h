// DataMatrix: the object x attribute matrix underlying the delta-cluster
// model (paper Section 3, Figure 2). Entries may be *missing*
// ("unspecified" in the paper); all model quantities (bases, residues,
// volume, occupancy) are computed over specified entries only.
#ifndef DELTACLUS_CORE_DATA_MATRIX_H_
#define DELTACLUS_CORE_DATA_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/storage/matrix_store.h"

namespace deltaclus {

/// Dense matrix of doubles with a per-entry specified/missing mask, held
/// behind a pluggable storage backend (src/storage/matrix_store.h). Rows
/// are objects (e.g. viewers, genes) and columns are attributes (e.g.
/// movies, experiment conditions).
///
/// The representation is intentionally dense: the paper's algorithms scan
/// submatrices entry-by-entry, and a dense value array plus a byte mask is
/// both the fastest layout for those scans and the simplest one to reason
/// about. Sparse data sets (MovieLens is ~6% dense) still fit comfortably
/// in memory at the scales the paper evaluates (<= 3000 x 1700).
///
/// The backend keeps the entries in *both* row-major and column-major
/// order, because FLOC's inner loop is symmetric in rows and columns: row
/// actions scan along rows, column actions scan along columns. With a
/// single row-major plane every column scan strides by `cols()` and
/// misses cache on each step; the mirror makes both scan directions
/// stride-1. Readers pick whichever direction matches their traversal via
/// the typed span accessors below -- RowValues/RowMask for row scans,
/// ColValues/ColMask for column scans (see DESIGN.md "The storage
/// layer"). The raw planes themselves never leave src/storage/.
///
/// Copies are copy-on-write: copying a DataMatrix shares the backend, and
/// the first mutation through a shared (or read-only, e.g. mmap) backend
/// materializes a private in-memory copy. Value semantics are preserved
/// -- mutating a copy never changes the original -- while read-only
/// pipelines (mine, stats, eval) copy matrices for free.
class DataMatrix {
 public:
  /// Creates a rows x cols matrix with every entry missing.
  DataMatrix(size_t rows, size_t cols);

  /// Creates a rows x cols matrix with every entry specified as `fill`.
  /// Throws std::invalid_argument if `fill` is nan or +-inf.
  DataMatrix(size_t rows, size_t cols, double fill);

  /// Wraps an existing backend (e.g. an MmapStore over a .dcm file, or an
  /// InMemoryStore built by a streaming parser).
  explicit DataMatrix(std::shared_ptr<storage::MatrixStore> store);

  /// Builds a fully-specified matrix from a nested initializer list.
  /// All inner lists must have equal length.
  static DataMatrix FromRows(
      std::initializer_list<std::initializer_list<double>> rows);

  /// Builds a matrix with missing entries from optionals; std::nullopt
  /// marks a missing entry. All inner vectors must have equal length
  /// (DC_CHECKed, naming the offending row).
  static DataMatrix FromOptionalRows(
      const std::vector<std::vector<std::optional<double>>>& rows);

  DataMatrix(const DataMatrix&) = default;
  DataMatrix& operator=(const DataMatrix&) = default;
  DataMatrix(DataMatrix&&) = default;
  DataMatrix& operator=(DataMatrix&&) = default;

  size_t rows() const { return store_->rows(); }
  size_t cols() const { return store_->cols(); }

  /// True if entry (i, j) has a value.
  bool IsSpecified(size_t i, size_t j) const {
    return store_->IsSpecified(i, j);
  }

  /// Value of entry (i, j). Must be specified.
  double Value(size_t i, size_t j) const { return store_->Value(i, j); }

  /// Value if specified, std::nullopt otherwise.
  std::optional<double> ValueOrMissing(size_t i, size_t j) const;

  /// Sets entry (i, j) to `value` (marking it specified). Materializes a
  /// private mutable backend first if the current one is shared or
  /// read-only. Throws std::invalid_argument, naming the entry, if
  /// `value` is nan or +-inf (the same policy as ReadCsv).
  void Set(size_t i, size_t j, double value);

  /// Marks entry (i, j) missing. Copy-on-write like Set.
  void SetMissing(size_t i, size_t j);

  /// Number of specified entries in the whole matrix. O(1): the count is
  /// maintained by every mutation.
  size_t NumSpecified() const { return store_->num_specified(); }

  /// Number of specified entries in row i / column j. O(1): per-row and
  /// per-column counts are maintained by Set/SetMissing so hot loops can
  /// dispatch to the branch-free dense kernel without rescanning masks.
  size_t NumSpecifiedInRow(size_t i) const;
  size_t NumSpecifiedInCol(size_t j) const;

  /// True when row i / column j / the whole matrix has no missing entry.
  /// O(1); these are the dense-fast-path dispatch predicates of the gain
  /// kernels (see DESIGN.md "The gain kernel").
  bool RowFullySpecified(size_t i) const {
    return store_->RowSpecifiedCounts()[i] == cols();
  }
  bool ColFullySpecified(size_t j) const {
    return store_->ColSpecifiedCounts()[j] == rows();
  }
  bool FullySpecified() const {
    return store_->num_specified() == rows() * cols();
  }

  /// Fraction of entries that are specified.
  double Density() const;

  /// Returns a copy with every specified entry replaced by log(value).
  /// This is the paper's prescribed reduction from *amplification*
  /// (multiplicative) coherence to *shifting* (additive) coherence
  /// (Section 3). All specified entries must be > 0.
  DataMatrix LogTransformed() const;

  /// Minimum / maximum specified value; nullopt if the matrix is empty of
  /// specified entries.
  std::optional<double> MinSpecified() const;
  std::optional<double> MaxSpecified() const;

  /// Row i for row-direction hot loops: stride-1 spans of length cols().
  /// `RowValues(i)[j]` is the value and `RowMask(i)[j] != 0` means
  /// specified. Consecutive j are adjacent in memory.
  std::span<const double> RowValues(size_t i) const {
    return store_->RowValues(i);
  }
  std::span<const uint8_t> RowMask(size_t i) const {
    return store_->RowMask(i);
  }

  /// Column j for column-direction hot loops: stride-1 spans of length
  /// rows() over the column-major mirror. `ColValues(j)[i]` is the same
  /// entry as `RowValues(i)[j]`, but consecutive i are adjacent in
  /// memory. Always in sync with the row-major plane.
  std::span<const double> ColValues(size_t j) const {
    return store_->ColValues(j);
  }
  std::span<const uint8_t> ColMask(size_t j) const {
    return store_->ColMask(j);
  }

  /// The backing store (for backend-aware plumbing: .dcm writing,
  /// telemetry, shard accounting -- not for plane access).
  const storage::MatrixStore& store() const { return *store_; }

  /// The backing store's tag: "mem" or "mmap".
  const char* BackendName() const { return store_->BackendName(); }

 private:
  /// Gives this matrix sole ownership of a mutable backend, cloning the
  /// planes if the current backend is shared with another DataMatrix or
  /// cannot be written (mmap).
  void EnsureMutable();

  std::shared_ptr<storage::MatrixStore> store_;
};

}  // namespace deltaclus

#endif  // DELTACLUS_CORE_DATA_MATRIX_H_
