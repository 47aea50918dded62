#include "src/data/matrix_io.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/data/synthetic.h"

namespace deltaclus {
namespace {

TEST(MatrixIoTest, CsvRoundTripDense) {
  DataMatrix m = DataMatrix::FromRows({{1.5, -2.25}, {3.0, 4.125}});
  std::stringstream ss;
  WriteCsv(m, ss);
  DataMatrix back = ReadCsv(ss);
  ASSERT_EQ(back.rows(), 2u);
  ASSERT_EQ(back.cols(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_DOUBLE_EQ(back.Value(i, j), m.Value(i, j));
    }
  }
}

TEST(MatrixIoTest, CsvRoundTripWithMissing) {
  DataMatrix m = DataMatrix::FromOptionalRows(
      {{1.0, std::nullopt}, {std::nullopt, 4.0}});
  std::stringstream ss;
  WriteCsv(m, ss);
  DataMatrix back = ReadCsv(ss);
  EXPECT_TRUE(back.IsSpecified(0, 0));
  EXPECT_FALSE(back.IsSpecified(0, 1));
  EXPECT_FALSE(back.IsSpecified(1, 0));
  EXPECT_DOUBLE_EQ(back.Value(1, 1), 4.0);
}

TEST(MatrixIoTest, CustomMissingToken) {
  DataMatrix m(1, 2);
  m.Set(0, 0, 7.0);
  std::stringstream ss;
  WriteCsv(m, ss, "?");
  EXPECT_EQ(ss.str(), "7,?\n");
  DataMatrix back = ReadCsv(ss, "?");
  EXPECT_FALSE(back.IsSpecified(0, 1));
}

TEST(MatrixIoTest, EmptyFieldsAreMissing) {
  std::stringstream ss("1,,3\n,5,\n");
  DataMatrix m = ReadCsv(ss);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FALSE(m.IsSpecified(0, 1));
  EXPECT_FALSE(m.IsSpecified(1, 0));
  EXPECT_FALSE(m.IsSpecified(1, 2));
  EXPECT_DOUBLE_EQ(m.Value(1, 1), 5.0);
}

TEST(MatrixIoTest, RejectsRaggedCsv) {
  std::stringstream ss("1,2,3\n4,5\n");
  EXPECT_THROW(ReadCsv(ss), std::runtime_error);
}

TEST(MatrixIoTest, RejectsNonNumeric) {
  std::stringstream ss("1,abc\n");
  EXPECT_THROW(ReadCsv(ss), std::runtime_error);
}

// A specified cell must be a finite double: out-of-range literals and
// every non-finite spelling std::stod accepts are rejected with the
// cell's line and column.
TEST(MatrixIoTest, RejectsNonFiniteCells) {
  for (const std::string cell : {"nan", "NaN", "inf", "-inf", "Infinity",
                                 "1e400"}) {
    std::stringstream ss("1,2\n3," + cell + "\n");
    try {
      ReadCsv(ss);
      FAIL() << "accepted '" << cell << "'";
    } catch (const std::runtime_error& e) {
      std::string what = e.what();
      EXPECT_NE(what.find("'" + cell + "' at line 2, column 2"),
                std::string::npos)
          << what;
    }
  }
}

TEST(MatrixIoTest, SkipsBlankLines) {
  std::stringstream ss("1,2\n\n3,4\n");
  DataMatrix m = ReadCsv(ss);
  EXPECT_EQ(m.rows(), 2u);
}

TEST(MatrixIoTest, FileRoundTrip) {
  SyntheticConfig config;
  config.rows = 30;
  config.cols = 10;
  config.num_clusters = 1;
  config.missing_fraction = 0.2;
  config.seed = 3;
  SyntheticDataset data = GenerateSynthetic(config);
  std::string path = testing::TempDir() + "/deltaclus_io_test.csv";
  WriteCsvFile(data.matrix, path);
  DataMatrix back = ReadCsvFile(path);
  ASSERT_EQ(back.rows(), data.matrix.rows());
  ASSERT_EQ(back.cols(), data.matrix.cols());
  for (size_t i = 0; i < back.rows(); ++i) {
    for (size_t j = 0; j < back.cols(); ++j) {
      ASSERT_EQ(back.IsSpecified(i, j), data.matrix.IsSpecified(i, j));
      if (back.IsSpecified(i, j)) {
        EXPECT_NEAR(back.Value(i, j), data.matrix.Value(i, j), 1e-9);
      }
    }
  }
}

TEST(MatrixIoTest, ReadFileFailsOnMissingPath) {
  EXPECT_THROW(ReadCsvFile("/nonexistent/path/x.csv"), std::runtime_error);
}

TEST(MatrixIoTest, TriplesRoundTrip) {
  DataMatrix m(4, 5);
  m.Set(0, 1, 3.5);
  m.Set(2, 4, -1.0);
  m.Set(3, 0, 8.0);
  std::stringstream ss;
  WriteTriples(m, ss);
  DataMatrix back = ReadTriples(ss, 4, 5);
  EXPECT_EQ(back.NumSpecified(), 3u);
  EXPECT_DOUBLE_EQ(back.Value(0, 1), 3.5);
  EXPECT_DOUBLE_EQ(back.Value(2, 4), -1.0);
  EXPECT_DOUBLE_EQ(back.Value(3, 0), 8.0);
}

TEST(MatrixIoTest, TriplesAcceptTabsAndExtraFields) {
  // The MovieLens u.data format: user \t item \t rating \t timestamp.
  std::stringstream ss("0\t1\t5\t887431973\n2\t0\t3\t875693118\n");
  DataMatrix m = ReadTriples(ss, 3, 2);
  EXPECT_DOUBLE_EQ(m.Value(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.Value(2, 0), 3.0);
}

TEST(MatrixIoTest, TriplesRejectOutOfRange) {
  std::stringstream ss("5,0,1\n");
  EXPECT_THROW(ReadTriples(ss, 3, 3), std::runtime_error);
}

TEST(MatrixIoTest, TriplesRejectMalformed) {
  std::stringstream ss("1,notanumber\n");
  EXPECT_THROW(ReadTriples(ss, 3, 3), std::runtime_error);
}

TEST(MatrixIoTest, MovieLens100KShiftsOneBasedIds) {
  // The real u.data format: user \t item \t rating \t timestamp, 1-based.
  std::stringstream ss("1\t1\t5\t874965758\n943\t1682\t3\t875693118\n");
  DataMatrix m = ReadMovieLens100K(ss);
  EXPECT_EQ(m.rows(), 943u);
  EXPECT_EQ(m.cols(), 1682u);
  EXPECT_DOUBLE_EQ(m.Value(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(m.Value(942, 1681), 3.0);
  EXPECT_EQ(m.NumSpecified(), 2u);
}

TEST(MatrixIoTest, MovieLens100KRejectsZeroId) {
  std::stringstream ss("0\t5\t3\t1\n");
  EXPECT_THROW(ReadMovieLens100K(ss), std::runtime_error);
}

TEST(MatrixIoTest, MovieLens100KRejectsOverflowId) {
  std::stringstream ss("944\t5\t3\t1\n");
  EXPECT_THROW(ReadMovieLens100K(ss), std::runtime_error);
}

}  // namespace
}  // namespace deltaclus
