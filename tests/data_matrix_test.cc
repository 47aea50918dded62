#include "src/core/data_matrix.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace deltaclus {
namespace {

// Checks every entry of both scan directions against the accessor API:
// the column-major mirror must agree with the row-major plane exactly
// (same doubles, same mask bytes).
void ExpectPlanesConsistent(const DataMatrix& m) {
  for (size_t i = 0; i < m.rows(); ++i) {
    auto row_values = m.RowValues(i);
    auto row_mask = m.RowMask(i);
    ASSERT_EQ(row_values.size(), m.cols());
    ASSERT_EQ(row_mask.size(), m.cols());
    for (size_t j = 0; j < m.cols(); ++j) {
      ASSERT_EQ(row_mask[j], m.ColMask(j)[i])
          << "mask planes diverge at (" << i << ", " << j << ")";
      ASSERT_EQ(row_mask[j] != 0, m.IsSpecified(i, j));
      if (row_mask[j]) {
        ASSERT_EQ(row_values[j], m.ColValues(j)[i])
            << "value planes diverge at (" << i << ", " << j << ")";
        ASSERT_EQ(row_values[j], m.Value(i, j));
      }
    }
  }
}

TEST(DataMatrixTest, StartsAllMissing) {
  DataMatrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.NumSpecified(), 0u);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_FALSE(m.IsSpecified(i, j));
      EXPECT_FALSE(m.ValueOrMissing(i, j).has_value());
    }
  }
}

TEST(DataMatrixTest, FillConstructorSpecifiesEverything) {
  DataMatrix m(2, 3, 7.5);
  EXPECT_EQ(m.NumSpecified(), 6u);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_TRUE(m.IsSpecified(i, j));
      EXPECT_DOUBLE_EQ(m.Value(i, j), 7.5);
    }
  }
}

TEST(DataMatrixTest, SetAndGetRoundTrip) {
  DataMatrix m(2, 2);
  m.Set(0, 1, 3.25);
  EXPECT_TRUE(m.IsSpecified(0, 1));
  EXPECT_DOUBLE_EQ(m.Value(0, 1), 3.25);
  EXPECT_FALSE(m.IsSpecified(1, 0));
}

TEST(DataMatrixTest, SetRejectsNonFiniteNamingTheEntry) {
  DataMatrix m(3, 4);
  m.Set(1, 1, 2.0);
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    try {
      m.Set(2, 3, bad);
      FAIL() << "accepted " << bad;
    } catch (const std::invalid_argument& e) {
      std::string what = e.what();
      EXPECT_NE(what.find("DataMatrix::Set: non-finite"), std::string::npos)
          << what;
      EXPECT_NE(what.find("row 2, column 3"), std::string::npos) << what;
    }
  }
  // The rejected writes left the matrix untouched.
  EXPECT_FALSE(m.IsSpecified(2, 3));
  EXPECT_EQ(m.NumSpecified(), 1u);
  EXPECT_THROW(DataMatrix(2, 2, std::nan("")), std::invalid_argument);
  EXPECT_THROW(DataMatrix(2, 2, -HUGE_VAL), std::invalid_argument);
}

TEST(DataMatrixTest, SetMissingClearsEntry) {
  DataMatrix m(2, 2, 1.0);
  m.SetMissing(1, 1);
  EXPECT_FALSE(m.IsSpecified(1, 1));
  EXPECT_EQ(m.NumSpecified(), 3u);
}

TEST(DataMatrixTest, FromRowsBuildsCorrectly) {
  DataMatrix m = DataMatrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.Value(0, 0), 1);
  EXPECT_DOUBLE_EQ(m.Value(1, 2), 6);
  EXPECT_EQ(m.NumSpecified(), 6u);
}

TEST(DataMatrixTest, FromRowsRejectsRagged) {
  EXPECT_THROW(DataMatrix::FromRows({{1, 2}, {3}}), std::invalid_argument);
}

TEST(DataMatrixTest, FromOptionalRowsHandlesMissing) {
  DataMatrix m = DataMatrix::FromOptionalRows(
      {{1.0, std::nullopt, 3.0}, {std::nullopt, 5.0, 6.0}});
  EXPECT_EQ(m.NumSpecified(), 4u);
  EXPECT_FALSE(m.IsSpecified(0, 1));
  EXPECT_FALSE(m.IsSpecified(1, 0));
  EXPECT_DOUBLE_EQ(m.Value(1, 1), 5.0);
}

TEST(DataMatrixTest, RowAndColCounts) {
  DataMatrix m = DataMatrix::FromOptionalRows(
      {{1.0, std::nullopt, 3.0}, {std::nullopt, std::nullopt, 6.0}});
  EXPECT_EQ(m.NumSpecifiedInRow(0), 2u);
  EXPECT_EQ(m.NumSpecifiedInRow(1), 1u);
  EXPECT_EQ(m.NumSpecifiedInCol(0), 1u);
  EXPECT_EQ(m.NumSpecifiedInCol(1), 0u);
  EXPECT_EQ(m.NumSpecifiedInCol(2), 2u);
}

TEST(DataMatrixTest, CountsTrackSetAndSetMissingTransitions) {
  // The O(1) specified-count bookkeeping behind the dense-kernel
  // dispatch: counts move only on mask *transitions*, not on every call.
  DataMatrix m(2, 3);
  EXPECT_FALSE(m.RowFullySpecified(0));
  EXPECT_FALSE(m.ColFullySpecified(0));
  EXPECT_FALSE(m.FullySpecified());

  m.Set(0, 0, 1.0);
  m.Set(0, 0, 2.0);  // overwrite: already specified, counts unchanged
  EXPECT_EQ(m.NumSpecified(), 1u);
  EXPECT_EQ(m.NumSpecifiedInRow(0), 1u);
  EXPECT_EQ(m.NumSpecifiedInCol(0), 1u);

  m.Set(0, 1, 3.0);
  m.Set(0, 2, 4.0);
  EXPECT_TRUE(m.RowFullySpecified(0));
  EXPECT_FALSE(m.RowFullySpecified(1));
  EXPECT_FALSE(m.FullySpecified());

  m.Set(1, 0, 5.0);
  EXPECT_TRUE(m.ColFullySpecified(0));

  m.SetMissing(0, 1);
  m.SetMissing(0, 1);  // already missing: a no-op for the counts
  EXPECT_EQ(m.NumSpecifiedInRow(0), 2u);
  EXPECT_FALSE(m.RowFullySpecified(0));
  EXPECT_EQ(m.NumSpecified(), 3u);

  m.Set(0, 1, 6.0);
  m.Set(1, 1, 7.0);
  m.Set(1, 2, 8.0);
  EXPECT_TRUE(m.FullySpecified());
  EXPECT_TRUE(m.RowFullySpecified(1));
  EXPECT_TRUE(m.ColFullySpecified(1));
  EXPECT_TRUE(m.ColFullySpecified(2));

  m.SetMissing(1, 2);
  EXPECT_FALSE(m.FullySpecified());
  EXPECT_FALSE(m.ColFullySpecified(2));
  EXPECT_TRUE(m.ColFullySpecified(1));
}

TEST(DataMatrixTest, FillConstructorIsFullySpecified) {
  DataMatrix m(2, 2, 1.5);
  EXPECT_TRUE(m.FullySpecified());
  EXPECT_TRUE(m.RowFullySpecified(0));
  EXPECT_TRUE(m.RowFullySpecified(1));
  EXPECT_TRUE(m.ColFullySpecified(0));
  EXPECT_TRUE(m.ColFullySpecified(1));
}

TEST(DataMatrixTest, DensityIsFractionSpecified) {
  DataMatrix m(2, 2);
  EXPECT_DOUBLE_EQ(m.Density(), 0.0);
  m.Set(0, 0, 1);
  m.Set(1, 1, 2);
  EXPECT_DOUBLE_EQ(m.Density(), 0.5);
}

TEST(DataMatrixTest, LogTransformAppliesElementwise) {
  DataMatrix m = DataMatrix::FromRows({{1.0, std::exp(1.0)}, {10.0, 100.0}});
  DataMatrix lg = m.LogTransformed();
  EXPECT_DOUBLE_EQ(lg.Value(0, 0), 0.0);
  EXPECT_NEAR(lg.Value(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(lg.Value(1, 1), std::log(100.0), 1e-12);
}

TEST(DataMatrixTest, LogTransformPreservesMissing) {
  DataMatrix m(2, 2);
  m.Set(0, 0, 5.0);
  DataMatrix lg = m.LogTransformed();
  EXPECT_TRUE(lg.IsSpecified(0, 0));
  EXPECT_FALSE(lg.IsSpecified(0, 1));
  EXPECT_FALSE(lg.IsSpecified(1, 1));
}

TEST(DataMatrixTest, LogTransformRejectsNonPositive) {
  DataMatrix m(1, 1, 0.0);
  EXPECT_THROW(m.LogTransformed(), std::domain_error);
  DataMatrix n(1, 1, -2.0);
  EXPECT_THROW(n.LogTransformed(), std::domain_error);
}

TEST(DataMatrixTest, LogTransformTurnsAmplificationIntoShift) {
  // Amplification coherence: row2 = 3 * row1. After log transform the two
  // rows differ by the constant log(3) -- shifting coherence, exactly the
  // reduction the paper prescribes in Section 3.
  DataMatrix m = DataMatrix::FromRows({{2, 4, 8}, {6, 12, 24}});
  DataMatrix lg = m.LogTransformed();
  double d0 = lg.Value(1, 0) - lg.Value(0, 0);
  double d1 = lg.Value(1, 1) - lg.Value(0, 1);
  double d2 = lg.Value(1, 2) - lg.Value(0, 2);
  EXPECT_NEAR(d0, std::log(3.0), 1e-12);
  EXPECT_NEAR(d1, d0, 1e-12);
  EXPECT_NEAR(d2, d0, 1e-12);
}

TEST(DataMatrixTest, MinMaxSpecified) {
  DataMatrix m(2, 2);
  EXPECT_FALSE(m.MinSpecified().has_value());
  EXPECT_FALSE(m.MaxSpecified().has_value());
  m.Set(0, 0, 5.0);
  m.Set(1, 1, -2.0);
  EXPECT_DOUBLE_EQ(*m.MinSpecified(), -2.0);
  EXPECT_DOUBLE_EQ(*m.MaxSpecified(), 5.0);
}

TEST(DataMatrixTest, SpanAccessMatchesAccessors) {
  DataMatrix m = DataMatrix::FromRows({{1, 2}, {3, 4}});
  m.SetMissing(0, 1);
  EXPECT_DOUBLE_EQ(m.RowValues(1)[0], 3);
  EXPECT_EQ(m.RowMask(0)[1], 0);
  EXPECT_EQ(m.RowMask(1)[1], 1);
}

TEST(DataMatrixDeathTest, FromOptionalRowsRejectsRaggedNamingRow) {
  EXPECT_DEATH(
      DataMatrix::FromOptionalRows({{1.0, 2.0}, {3.0}}),
      "FromOptionalRows: row 1 has 1 entries but row 0 has 2");
}

TEST(DataMatrixTest, ColumnMajorMirrorTracksInterleavedMutations) {
  Rng rng(321);
  DataMatrix m(17, 23);
  ExpectPlanesConsistent(m);
  for (int step = 0; step < 2000; ++step) {
    size_t i = rng.UniformIndex(17);
    size_t j = rng.UniformIndex(23);
    if (rng.Bernoulli(0.7)) {
      m.Set(i, j, rng.Uniform(-100.0, 100.0));
    } else {
      m.SetMissing(i, j);
    }
    if (step % 250 == 0) ExpectPlanesConsistent(m);
  }
  ExpectPlanesConsistent(m);
}

TEST(DataMatrixTest, ConstructorsInitializeBothPlanes) {
  ExpectPlanesConsistent(DataMatrix(4, 6));
  ExpectPlanesConsistent(DataMatrix(4, 6, 2.5));
  ExpectPlanesConsistent(DataMatrix::FromRows({{1, 2, 3}, {4, 5, 6}}));
  ExpectPlanesConsistent(DataMatrix::FromOptionalRows(
      {{1.0, std::nullopt, 3.0}, {std::nullopt, 5.0, 6.0}}));
}

TEST(DataMatrixTest, LogTransformedRebuildsMirror) {
  DataMatrix m = DataMatrix::FromOptionalRows(
      {{2.0, std::nullopt, 8.0}, {6.0, 12.0, std::nullopt}});
  DataMatrix lg = m.LogTransformed();
  ExpectPlanesConsistent(lg);
  EXPECT_DOUBLE_EQ(lg.ColValues(0)[1], std::log(6.0));
  EXPECT_EQ(lg.ColMask(1)[0], 0);
}

TEST(DataMatrixTest, CopySemantics) {
  DataMatrix a(2, 2, 1.0);
  DataMatrix b = a;
  b.Set(0, 0, 99.0);
  EXPECT_DOUBLE_EQ(a.Value(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(b.Value(0, 0), 99.0);
}

}  // namespace
}  // namespace deltaclus
