#include "src/data/matrix_io.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/storage/dcm_format.h"
#include "src/storage/in_memory_store.h"
#include "src/storage/mmap_store.h"

namespace deltaclus {

namespace {

std::vector<std::string> SplitFields(const std::string& line, char sep) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream ss(line);
  while (std::getline(ss, field, sep)) fields.push_back(field);
  if (!line.empty() && line.back() == sep) fields.emplace_back();
  return fields;
}

std::string Trim(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

void WriteCsv(const DataMatrix& matrix, std::ostream& os,
              const std::string& missing_token) {
  // Round-trip exactness: max_digits10 guarantees the parsed double is
  // bit-identical to the written one.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (size_t i = 0; i < matrix.rows(); ++i) {
    for (size_t j = 0; j < matrix.cols(); ++j) {
      if (j > 0) os << ',';
      if (matrix.IsSpecified(i, j)) {
        os << matrix.Value(i, j);
      } else {
        os << missing_token;
      }
    }
    os << '\n';
  }
}

void WriteCsvFile(const DataMatrix& matrix, const std::string& path,
                  const std::string& missing_token) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("WriteCsvFile: cannot open " + path);
  WriteCsv(matrix, out, missing_token);
  if (!out) throw std::runtime_error("WriteCsvFile: write failed: " + path);
}

DataMatrix ReadCsv(std::istream& is, const std::string& missing_token) {
  // Streaming parse: each line appends directly to two flat row-major
  // planes -- no one-optional-per-entry intermediate -- and error
  // messages carry *physical* line numbers (1-based, counting blank and
  // skipped lines), so they point at the actual line in the file.
  std::vector<double> values;
  std::vector<uint8_t> mask;
  std::string line;
  size_t line_no = 0;
  size_t rows = 0;
  size_t cols = 0;
  size_t first_row_line = 0;
  while (std::getline(is, line)) {
    ++line_no;
    std::string trimmed = Trim(line);
    if (trimmed.empty()) continue;
    std::vector<std::string> fields = SplitFields(trimmed, ',');
    if (rows == 0) {
      cols = fields.size();
      first_row_line = line_no;
    } else if (fields.size() != cols) {
      throw std::runtime_error(
          "ReadCsv: ragged row at line " + std::to_string(line_no) +
          ": has " + std::to_string(fields.size()) + " fields but line " +
          std::to_string(first_row_line) + " has " + std::to_string(cols));
    }
    for (size_t col = 0; col < fields.size(); ++col) {
      std::string f = Trim(fields[col]);
      if (f.empty() || f == missing_token) {
        values.push_back(0.0);
        mask.push_back(0);
        continue;
      }
      // Out-of-range (1e400), trailing junk, and non-finite spellings
      // (nan, inf) are all rejected: a specified cell must be a finite
      // double, or every residue that touches it turns into nan.
      double v = 0.0;
      try {
        size_t pos = 0;
        v = std::stod(f, &pos);
        if (pos != f.size()) throw std::invalid_argument(f);
      } catch (const std::exception&) {
        v = std::numeric_limits<double>::quiet_NaN();
      }
      if (!std::isfinite(v)) {
        throw std::runtime_error("ReadCsv: bad number '" + f +
                                 "' at line " + std::to_string(line_no) +
                                 ", column " + std::to_string(col + 1) +
                                 " (cells must be finite numbers)");
      }
      values.push_back(v);
      mask.push_back(1);
    }
    ++rows;
  }
  return DataMatrix(storage::InMemoryStore::FromRowMajor(
      rows, cols, std::move(values), std::move(mask)));
}

DataMatrix ReadCsvFile(const std::string& path,
                       const std::string& missing_token) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("ReadCsvFile: cannot open " + path);
  return ReadCsv(in, missing_token);
}

void WriteTriples(const DataMatrix& matrix, std::ostream& os) {
  for (size_t i = 0; i < matrix.rows(); ++i) {
    for (size_t j = 0; j < matrix.cols(); ++j) {
      if (!matrix.IsSpecified(i, j)) continue;
      os << i << ',' << j << ',' << matrix.Value(i, j) << '\n';
    }
  }
}

DataMatrix ReadTriples(std::istream& is, size_t rows, size_t cols) {
  DataMatrix m(rows, cols);
  std::string line;
  size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    std::string trimmed = Trim(line);
    if (trimmed.empty()) continue;
    // Accept comma-, tab-, or space-separated triples.
    for (char& ch : trimmed) {
      if (ch == ',' || ch == '\t') ch = ' ';
    }
    std::istringstream ss(trimmed);
    long long row = 0;
    long long col = 0;
    double value = 0.0;
    if (!(ss >> row >> col >> value)) {
      throw std::runtime_error("ReadTriples: malformed line " +
                               std::to_string(line_no));
    }
    if (row < 0 || static_cast<size_t>(row) >= rows || col < 0 ||
        static_cast<size_t>(col) >= cols) {
      throw std::runtime_error("ReadTriples: index out of range at line " +
                               std::to_string(line_no));
    }
    m.Set(static_cast<size_t>(row), static_cast<size_t>(col), value);
  }
  return m;
}

DataMatrix ReadMovieLens100K(std::istream& is, size_t users, size_t movies) {
  DataMatrix m(users, movies);
  std::string line;
  size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    std::string trimmed = Trim(line);
    if (trimmed.empty()) continue;
    for (char& ch : trimmed) {
      if (ch == ',' || ch == '\t') ch = ' ';
    }
    std::istringstream ss(trimmed);
    long long user = 0;
    long long item = 0;
    double rating = 0.0;
    if (!(ss >> user >> item >> rating)) {
      throw std::runtime_error("ReadMovieLens100K: malformed line " +
                               std::to_string(line_no));
    }
    // u.data ids are 1-based.
    if (user < 1 || static_cast<size_t>(user) > users || item < 1 ||
        static_cast<size_t>(item) > movies) {
      throw std::runtime_error("ReadMovieLens100K: id out of range at line " +
                               std::to_string(line_no));
    }
    m.Set(static_cast<size_t>(user - 1), static_cast<size_t>(item - 1),
          rating);
  }
  return m;
}

void WriteDcmFile(const DataMatrix& matrix, const std::string& path) {
  storage::WriteDcmFile(matrix.store(), path);
}

DataMatrix ReadDcmFile(const std::string& path, MatrixBackend backend) {
  auto mapped = storage::MmapStore::Open(path);
  if (backend == MatrixBackend::kMmap) return DataMatrix(std::move(mapped));
  // kMem: deep-copy the planes into heap vectors, then drop the mapping.
  return DataMatrix(mapped->CloneInMemory());
}

DataMatrix ReadMatrixFile(const std::string& path, MatrixBackend backend,
                          const std::string& missing_token) {
  if (storage::LooksLikeDcmFile(path)) return ReadDcmFile(path, backend);
  DataMatrix parsed = ReadCsvFile(path, missing_token);
  if (backend == MatrixBackend::kMem) return parsed;
  // mmap backend over a text input: compile the parsed matrix to a
  // temporary .dcm sibling of the input, map it, and unlink immediately
  // -- the POSIX mapping stays valid with no name left on disk. This
  // keeps the entire mining pipeline on the mmap code path regardless of
  // the input format.
  std::string tmpl = path + ".XXXXXX.dcm";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  int fd = ::mkstemps(buf.data(), 4);  // suffix ".dcm"
  if (fd < 0) {
    throw std::runtime_error(
        "ReadMatrixFile: cannot create a temporary .dcm next to '" + path +
        "'");
  }
  ::close(fd);
  std::string tmp_path(buf.data());
  try {
    WriteDcmFile(parsed, tmp_path);
    DataMatrix mapped = ReadDcmFile(tmp_path, MatrixBackend::kMmap);
    std::remove(tmp_path.c_str());
    return mapped;
  } catch (...) {
    std::remove(tmp_path.c_str());
    throw;
  }
}

}  // namespace deltaclus
