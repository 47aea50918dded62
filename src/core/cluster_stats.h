// ClusterStats: incrementally-maintained sums and counts for one
// delta-cluster's submatrix, giving O(1) access to the paper's bases
// (Definition 3.3):
//   row base  d_iJ = mean of row i's specified entries over cluster cols,
//   col base  d_Ij = mean of col j's specified entries over cluster rows,
//   cluster base d_IJ = mean of all specified entries,
//   volume v_IJ = number of specified entries (Definition 3.2).
//
// ClusterView couples a Cluster with its ClusterStats and keeps them
// consistent under membership toggles; this is what makes FLOC's
// per-action residue evaluation a single tight pass over the submatrix.
//
// Incremental updates are path-dependent in their low-order float bits
// (a toggle's +=/-= associates differently than Build's single pass).
// The mining session keeps that drift inside a step: at every Step()
// boundary it rebuilds each cluster it changed, so stats there equal a
// Build() of the membership and a checkpoint needs only memberships
// (src/session/mining_session.h).
#ifndef DELTACLUS_CORE_CLUSTER_STATS_H_
#define DELTACLUS_CORE_CLUSTER_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/data_matrix.h"

namespace deltaclus {

/// Sums and specified-entry counts for the rows/columns of one cluster's
/// submatrix. Entries for non-member rows/columns are zero. Updates are
/// O(|J|) per row toggle and O(|I|) per column toggle.
class ClusterStats {
 public:
  ClusterStats() = default;

  /// Full O(|I| * |J|) recompute from scratch.
  void Build(const DataMatrix& m, const Cluster& c);

  /// Incremental updates. AddRow/RemoveRow must be called exactly when row
  /// i enters/leaves the cluster; they read the cluster's *column* members
  /// only, so they may be called before or after the Cluster edit itself.
  void AddRow(const DataMatrix& m, const Cluster& c, size_t i);
  void RemoveRow(const DataMatrix& m, const Cluster& c, size_t i);
  void AddCol(const DataMatrix& m, const Cluster& c, size_t j);
  void RemoveCol(const DataMatrix& m, const Cluster& c, size_t j);

  /// Sum / count of specified entries of member row i over cluster columns.
  double RowSum(size_t i) const { return row_sum_[i]; }
  size_t RowCount(size_t i) const { return row_cnt_[i]; }
  /// Every row's RowSum, indexed by matrix row.
  const double* RowSums() const { return row_sum_.data(); }
  /// Sum / count of specified entries of member column j over cluster rows.
  double ColSum(size_t j) const { return col_sum_[j]; }
  size_t ColCount(size_t j) const { return col_cnt_[j]; }

  /// Row base d_iJ (0 when the row has no specified entry in the cluster).
  double RowBase(size_t i) const {
    return row_cnt_[i] == 0 ? 0.0 : row_sum_[i] / row_cnt_[i];
  }
  /// Column base d_Ij (0 when the column has no specified entry).
  double ColBase(size_t j) const {
    return col_cnt_[j] == 0 ? 0.0 : col_sum_[j] / col_cnt_[j];
  }
  /// Cluster base d_IJ (0 for volume-0 clusters).
  double ClusterBase() const { return volume_ == 0 ? 0.0 : total_ / volume_; }

  /// Volume v_IJ: number of specified entries in the submatrix.
  size_t Volume() const { return volume_; }
  /// Sum of all specified entries in the submatrix.
  double Total() const { return total_; }

  /// Computes sum and count of row i's specified entries over the given
  /// column list without touching state (used for virtual-toggle residue
  /// evaluation).
  static void RowSumOverCols(const DataMatrix& m,
                             const std::vector<uint32_t>& col_ids, size_t i,
                             double* sum, size_t* count);
  /// Same for column j over the given row list.
  static void ColSumOverRows(const DataMatrix& m,
                             const std::vector<uint32_t>& row_ids, size_t j,
                             double* sum, size_t* count);

 private:
  std::vector<double> row_sum_;
  std::vector<size_t> row_cnt_;
  std::vector<double> col_sum_;
  std::vector<size_t> col_cnt_;
  double total_ = 0.0;
  size_t volume_ = 0;
};

/// A Cluster paired with its ClusterStats and the matrix they describe.
/// All membership edits go through this class so the two stay consistent.
class ClusterView {
 public:
  /// Binds to `matrix` (which must outlive the view) with empty membership.
  explicit ClusterView(const DataMatrix& matrix);

  /// Binds to `matrix` and adopts `cluster`, building stats.
  ClusterView(const DataMatrix& matrix, Cluster cluster);

  ClusterView(const ClusterView&) = default;
  ClusterView& operator=(const ClusterView&) = default;
  ClusterView(ClusterView&&) = default;
  ClusterView& operator=(ClusterView&&) = default;

  const Cluster& cluster() const { return cluster_; }
  const ClusterStats& stats() const { return stats_; }
  const DataMatrix& matrix() const { return *matrix_; }

  /// Replaces the membership wholesale and rebuilds stats.
  void Reset(Cluster cluster);

  /// Membership toggles; keep stats incrementally up to date.
  void ToggleRow(size_t i);
  void ToggleCol(size_t j);

 private:
  const DataMatrix* matrix_;
  Cluster cluster_;
  ClusterStats stats_;
};

}  // namespace deltaclus

#endif  // DELTACLUS_CORE_CLUSTER_STATS_H_
