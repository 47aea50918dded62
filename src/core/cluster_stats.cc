#include "src/core/cluster_stats.h"

#include "src/util/check.h"

namespace deltaclus {

void ClusterStats::Build(const DataMatrix& m, const Cluster& c) {
  row_sum_.assign(m.rows(), 0.0);
  row_cnt_.assign(m.rows(), 0);
  col_sum_.assign(m.cols(), 0.0);
  col_cnt_.assign(m.cols(), 0);
  total_ = 0.0;
  volume_ = 0;

  for (uint32_t i : c.row_ids()) {
    const double* values = m.RowValues(i).data();
    const uint8_t* mask = m.RowMask(i).data();
    for (uint32_t j : c.col_ids()) {
      if (!mask[j]) continue;
      double v = values[j];
      row_sum_[i] += v;
      ++row_cnt_[i];
      col_sum_[j] += v;
      ++col_cnt_[j];
      total_ += v;
      ++volume_;
    }
  }
}

void ClusterStats::AddRow(const DataMatrix& m, const Cluster& c, size_t i) {
  DC_DCHECK_LT(i, m.rows());
  const double* values = m.RowValues(i).data();
  const uint8_t* mask = m.RowMask(i).data();
  double sum = 0.0;
  size_t cnt = 0;
  for (uint32_t j : c.col_ids()) {
    if (!mask[j]) continue;
    double v = values[j];
    col_sum_[j] += v;
    ++col_cnt_[j];
    sum += v;
    ++cnt;
  }
  row_sum_[i] = sum;
  row_cnt_[i] = cnt;
  total_ += sum;
  volume_ += cnt;
}

void ClusterStats::RemoveRow(const DataMatrix& m, const Cluster& c, size_t i) {
  DC_DCHECK_LT(i, m.rows());
  const double* values = m.RowValues(i).data();
  const uint8_t* mask = m.RowMask(i).data();
  for (uint32_t j : c.col_ids()) {
    if (!mask[j]) continue;
    double v = values[j];
    col_sum_[j] -= v;
    --col_cnt_[j];
  }
  total_ -= row_sum_[i];
  volume_ -= row_cnt_[i];
  row_sum_[i] = 0.0;
  row_cnt_[i] = 0;
}

void ClusterStats::AddCol(const DataMatrix& m, const Cluster& c, size_t j) {
  DC_DCHECK_LT(j, m.cols());
  // Column-direction scan: stride-1 on the column-major mirror. Summation
  // order over row_ids is unchanged, so sums are bit-identical to a
  // row-major scan.
  const double* col_values = m.ColValues(j).data();
  const uint8_t* col_mask = m.ColMask(j).data();
  double sum = 0.0;
  size_t cnt = 0;
  for (uint32_t i : c.row_ids()) {
    if (!col_mask[i]) continue;
    double v = col_values[i];
    row_sum_[i] += v;
    ++row_cnt_[i];
    sum += v;
    ++cnt;
  }
  col_sum_[j] = sum;
  col_cnt_[j] = cnt;
  total_ += sum;
  volume_ += cnt;
}

void ClusterStats::RemoveCol(const DataMatrix& m, const Cluster& c, size_t j) {
  DC_DCHECK_LT(j, m.cols());
  const double* col_values = m.ColValues(j).data();
  const uint8_t* col_mask = m.ColMask(j).data();
  for (uint32_t i : c.row_ids()) {
    if (!col_mask[i]) continue;
    double v = col_values[i];
    row_sum_[i] -= v;
    --row_cnt_[i];
  }
  total_ -= col_sum_[j];
  volume_ -= col_cnt_[j];
  col_sum_[j] = 0.0;
  col_cnt_[j] = 0;
}

void ClusterStats::RowSumOverCols(const DataMatrix& m,
                                  const std::vector<uint32_t>& col_ids,
                                  size_t i, double* sum, size_t* count) {
  const double* values = m.RowValues(i).data();
  const uint8_t* mask = m.RowMask(i).data();
  double s = 0.0;
  size_t c = 0;
  if (m.RowFullySpecified(i)) {
    // Branch-free: every entry of the row is specified. Summation order
    // is unchanged, so the result is bit-identical to the masked loop.
    for (uint32_t j : col_ids) s += values[j];
    c = col_ids.size();
  } else {
    // Branch-free: select on the *result* (adding 0.0 instead would turn
    // a -0.0 sum into +0.0, and an unspecified payload may be nan/inf).
    for (uint32_t j : col_ids) {
      bool specified = mask[j] != 0;
      double added = s + values[j];
      s = specified ? added : s;
      c += specified;
    }
  }
  *sum = s;
  *count = c;
}

void ClusterStats::ColSumOverRows(const DataMatrix& m,
                                  const std::vector<uint32_t>& row_ids,
                                  size_t j, double* sum, size_t* count) {
  // Stride-1 on the column-major mirror; same summation order as before.
  const double* col_values = m.ColValues(j).data();
  const uint8_t* col_mask = m.ColMask(j).data();
  double s = 0.0;
  size_t c = 0;
  if (m.ColFullySpecified(j)) {
    // Branch-free twin of the masked loop below; bit-identical (same
    // summation order, the mask is known all-ones).
    for (uint32_t i : row_ids) s += col_values[i];
    c = row_ids.size();
  } else {
    // Branch-free, selecting on the result as in RowSumOverCols.
    for (uint32_t i : row_ids) {
      bool specified = col_mask[i] != 0;
      double added = s + col_values[i];
      s = specified ? added : s;
      c += specified;
    }
  }
  *sum = s;
  *count = c;
}

ClusterView::ClusterView(const DataMatrix& matrix)
    : matrix_(&matrix), cluster_(matrix.rows(), matrix.cols()) {
  stats_.Build(*matrix_, cluster_);
}

ClusterView::ClusterView(const DataMatrix& matrix, Cluster cluster)
    : matrix_(&matrix), cluster_(std::move(cluster)) {
  DC_CHECK_EQ(cluster_.parent_rows(), matrix.rows())
      << "cluster bound to a matrix of different shape";
  DC_CHECK_EQ(cluster_.parent_cols(), matrix.cols())
      << "cluster bound to a matrix of different shape";
  stats_.Build(*matrix_, cluster_);
}

void ClusterView::Reset(Cluster cluster) {
  DC_CHECK_EQ(cluster.parent_rows(), matrix_->rows())
      << "Reset with a cluster of different parent shape";
  DC_CHECK_EQ(cluster.parent_cols(), matrix_->cols())
      << "Reset with a cluster of different parent shape";
  cluster_ = std::move(cluster);
  stats_.Build(*matrix_, cluster_);
}

void ClusterView::ToggleRow(size_t i) {
  if (cluster_.HasRow(i)) {
    stats_.RemoveRow(*matrix_, cluster_, i);
    cluster_.RemoveRow(i);
  } else {
    stats_.AddRow(*matrix_, cluster_, i);
    cluster_.AddRow(i);
  }
}

void ClusterView::ToggleCol(size_t j) {
  if (cluster_.HasCol(j)) {
    stats_.RemoveCol(*matrix_, cluster_, j);
    cluster_.RemoveCol(j);
  } else {
    stats_.AddCol(*matrix_, cluster_, j);
    cluster_.AddCol(j);
  }
}

}  // namespace deltaclus
