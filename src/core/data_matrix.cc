#include "src/core/data_matrix.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "src/storage/in_memory_store.h"
#include "src/util/check.h"

namespace deltaclus {

namespace {

// The ingest policy of ReadCsv, enforced for every writer: one nan or
// inf entry turns every residue that touches it into nan. Callers test
// std::isfinite first, so the message is only built on failure.
[[noreturn]] void ThrowNonFinite(const char* who, double value,
                                 const std::string& where) {
  throw std::invalid_argument(std::string(who) + ": non-finite value " +
                              std::to_string(value) + " at " + where +
                              " (entries must be finite numbers)");
}

}  // namespace

DataMatrix::DataMatrix(size_t rows, size_t cols)
    : store_(std::make_shared<storage::InMemoryStore>(rows, cols)) {}

DataMatrix::DataMatrix(size_t rows, size_t cols, double fill)
    : store_(std::make_shared<storage::InMemoryStore>(rows, cols, fill)) {
  if (!std::isfinite(fill)) ThrowNonFinite("DataMatrix", fill, "fill");
}

DataMatrix::DataMatrix(std::shared_ptr<storage::MatrixStore> store)
    : store_(std::move(store)) {
  DC_CHECK(store_ != nullptr) << "DataMatrix: null store";
}

DataMatrix DataMatrix::FromRows(
    std::initializer_list<std::initializer_list<double>> rows) {
  size_t num_rows = rows.size();
  size_t num_cols = num_rows == 0 ? 0 : rows.begin()->size();
  DataMatrix m(num_rows, num_cols);
  size_t i = 0;
  for (const auto& row : rows) {
    if (row.size() != num_cols) {
      throw std::invalid_argument("DataMatrix::FromRows: ragged rows");
    }
    size_t j = 0;
    for (double v : row) m.Set(i, j++, v);
    ++i;
  }
  return m;
}

DataMatrix DataMatrix::FromOptionalRows(
    const std::vector<std::vector<std::optional<double>>>& rows) {
  size_t num_rows = rows.size();
  size_t num_cols = num_rows == 0 ? 0 : rows.front().size();
  DataMatrix m(num_rows, num_cols);
  for (size_t i = 0; i < num_rows; ++i) {
    DC_CHECK_EQ(rows[i].size(), num_cols)
        << "DataMatrix::FromOptionalRows: row " << i << " has "
        << rows[i].size() << " entries but row 0 has " << num_cols;
    for (size_t j = 0; j < num_cols; ++j) {
      if (rows[i][j].has_value()) m.Set(i, j, *rows[i][j]);
    }
  }
  return m;
}

std::optional<double> DataMatrix::ValueOrMissing(size_t i, size_t j) const {
  if (!IsSpecified(i, j)) return std::nullopt;
  return Value(i, j);
}

void DataMatrix::EnsureMutable() {
  // Single-writer contract (see MatrixStore): no concurrent reader holds
  // spans into this matrix while it is being mutated, so swapping the
  // store here is safe. Copies made *before* the mutation keep the old
  // store alive and unchanged -- that is the value semantics.
  if (store_.use_count() > 1 || !store_->Mutable()) {
    store_ = store_->CloneInMemory();
  }
}

void DataMatrix::Set(size_t i, size_t j, double value) {
  if (!std::isfinite(value)) {
    ThrowNonFinite("DataMatrix::Set", value,
                   "row " + std::to_string(i) + ", column " + std::to_string(j));
  }
  EnsureMutable();
  store_->Set(i, j, value);
}

void DataMatrix::SetMissing(size_t i, size_t j) {
  EnsureMutable();
  store_->SetMissing(i, j);
}

size_t DataMatrix::NumSpecifiedInRow(size_t i) const {
  DC_DCHECK_LT(i, rows());
  return store_->RowSpecifiedCounts()[i];
}

size_t DataMatrix::NumSpecifiedInCol(size_t j) const {
  DC_DCHECK_LT(j, cols());
  return store_->ColSpecifiedCounts()[j];
}

double DataMatrix::Density() const {
  size_t cells = rows() * cols();
  if (cells == 0) return 0.0;
  return static_cast<double>(NumSpecified()) / static_cast<double>(cells);
}

DataMatrix DataMatrix::LogTransformed() const {
  DataMatrix out(rows(), cols());
  for (size_t i = 0; i < rows(); ++i) {
    auto values = RowValues(i);
    auto mask = RowMask(i);
    for (size_t j = 0; j < cols(); ++j) {
      if (!mask[j]) continue;
      double v = values[j];
      if (v <= 0) {
        throw std::domain_error(
            "DataMatrix::LogTransformed: non-positive specified entry");
      }
      out.Set(i, j, std::log(v));
    }
  }
  return out;
}

std::optional<double> DataMatrix::MinSpecified() const {
  std::optional<double> best;
  for (size_t i = 0; i < rows(); ++i) {
    auto values = RowValues(i);
    auto mask = RowMask(i);
    for (size_t j = 0; j < cols(); ++j) {
      if (!mask[j]) continue;
      if (!best || values[j] < *best) best = values[j];
    }
  }
  return best;
}

std::optional<double> DataMatrix::MaxSpecified() const {
  std::optional<double> best;
  for (size_t i = 0; i < rows(); ++i) {
    auto values = RowValues(i);
    auto mask = RowMask(i);
    for (size_t j = 0; j < cols(); ++j) {
      if (!mask[j]) continue;
      if (!best || values[j] > *best) best = values[j];
    }
  }
  return best;
}

}  // namespace deltaclus
