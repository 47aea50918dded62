// Storage-layer tests: the backend-blindness gate of the data plane.
//
// The contract under test (DESIGN.md "The storage layer"):
//   * a matrix loaded through InMemoryStore and through MmapStore over a
//     `.dcm` file exposes the *same bytes* through the span accessors,
//     so FLOC and Cheng & Church produce bit-identical output on either
//     backend at any thread count;
//   * `.dcm` rejection is loud and names the defect (truncated, bad
//     magic, version mismatch, checksum failure) plus the offending
//     path;
//   * loading stays O(header): payload corruption passes a default open
//     and is only caught by the explicit DcmVerify::kFull opt-in.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/baseline/cheng_church.h"
#include "src/core/cluster.h"
#include "src/core/data_matrix.h"
#include "src/core/floc.h"
#include "src/data/cluster_io.h"
#include "src/data/matrix_io.h"
#include "src/data/synthetic.h"
#include "src/storage/dcm_format.h"
#include "src/storage/in_memory_store.h"
#include "src/storage/matrix_store.h"
#include "src/storage/mmap_store.h"

namespace deltaclus {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

SyntheticDataset MakeData(uint64_t seed, double missing_fraction) {
  SyntheticConfig config;
  config.rows = 60;
  config.cols = 24;
  config.num_clusters = 3;
  config.volume_mean = 60;
  config.col_fraction = 0.25;
  config.noise_stddev = 0.5;
  config.missing_fraction = missing_fraction;
  config.seed = seed;
  return GenerateSynthetic(config);
}

/// Serializes a clustering to its canonical text form -- the unit of
/// "byte-identical output".
std::string ClustersAsText(const std::vector<Cluster>& clusters) {
  std::ostringstream os;
  WriteClusters(clusters, os);
  return os.str();
}

/// Asserts two matrices expose identical planes bit for bit, via the
/// public span accessors only.
void ExpectPlanesBitIdentical(const DataMatrix& a, const DataMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.NumSpecified(), b.NumSpecified());
  for (size_t i = 0; i < a.rows(); ++i) {
    auto av = a.RowValues(i);
    auto bv = b.RowValues(i);
    ASSERT_EQ(0, std::memcmp(av.data(), bv.data(), av.size_bytes()))
        << "values row " << i;
    auto am = a.RowMask(i);
    auto bm = b.RowMask(i);
    ASSERT_EQ(0, std::memcmp(am.data(), bm.data(), am.size_bytes()))
        << "mask row " << i;
  }
  for (size_t j = 0; j < a.cols(); ++j) {
    auto av = a.ColValues(j);
    auto bv = b.ColValues(j);
    ASSERT_EQ(0, std::memcmp(av.data(), bv.data(), av.size_bytes()))
        << "values col " << j;
    auto am = a.ColMask(j);
    auto bm = b.ColMask(j);
    ASSERT_EQ(0, std::memcmp(am.data(), bm.data(), am.size_bytes()))
        << "mask col " << j;
  }
}

std::vector<char> ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteAllBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Writes a small valid `.dcm` file and returns its path.
std::string WriteValidDcm(const std::string& name) {
  SyntheticDataset data = MakeData(7, 0.1);
  std::string path = TempPath(name);
  WriteDcmFile(data.matrix, path);
  return path;
}

/// Asserts that opening `path` throws a runtime_error naming both the
/// path and the expected defect.
void ExpectRejects(const std::string& path, const std::string& defect,
                   storage::DcmVerify verify = storage::DcmVerify::kHeader) {
  try {
    storage::MmapStore::Open(path, verify);
    FAIL() << path << ": expected rejection naming '" << defect << "'";
  } catch (const std::runtime_error& e) {
    std::string what = e.what();
    EXPECT_NE(what.find(defect), std::string::npos)
        << "message does not name the defect: " << what;
    EXPECT_NE(what.find(path), std::string::npos)
        << "message does not name the path: " << what;
  }
}

TEST(DcmRoundTrip, TextToDcmEqualsDirectLoad) {
  SyntheticDataset data = MakeData(11, 0.15);
  std::string csv_path = TempPath("storage_roundtrip.csv");
  WriteCsvFile(data.matrix, csv_path);
  DataMatrix direct = ReadCsvFile(csv_path);

  std::string dcm_path = TempPath("storage_roundtrip.dcm");
  WriteDcmFile(direct, dcm_path);
  DataMatrix mapped = ReadDcmFile(dcm_path, MatrixBackend::kMmap);
  DataMatrix copied = ReadDcmFile(dcm_path, MatrixBackend::kMem);

  EXPECT_STREQ("mmap", mapped.BackendName());
  EXPECT_STREQ("mem", copied.BackendName());
  ExpectPlanesBitIdentical(direct, mapped);
  ExpectPlanesBitIdentical(direct, copied);

  // ReadMatrixFile sniffs both formats and honors the requested backend
  // even for text input (via an unlinked temporary .dcm).
  DataMatrix sniffed_dcm = ReadMatrixFile(dcm_path, MatrixBackend::kMmap);
  DataMatrix sniffed_csv = ReadMatrixFile(csv_path, MatrixBackend::kMmap);
  EXPECT_STREQ("mmap", sniffed_dcm.BackendName());
  EXPECT_STREQ("mmap", sniffed_csv.BackendName());
  ExpectPlanesBitIdentical(direct, sniffed_dcm);
  ExpectPlanesBitIdentical(direct, sniffed_csv);
}

TEST(DcmRoundTrip, MmapIsCopyOnWrite) {
  std::string path = WriteValidDcm("storage_cow.dcm");
  DataMatrix m = ReadDcmFile(path, MatrixBackend::kMmap);
  ASSERT_STREQ("mmap", m.BackendName());

  // Mutating a read-only backend materializes a mutable in-memory copy
  // instead of touching (or faulting on) the mapping.
  size_t before = m.NumSpecified();
  m.SetMissing(0, 0);
  EXPECT_STREQ("mem", m.BackendName());
  EXPECT_EQ(before - 1, m.NumSpecified());

  // The file itself is untouched: a fresh full-verify open still passes.
  auto reread = storage::MmapStore::Open(path, storage::DcmVerify::kFull);
  EXPECT_EQ(before, reread->num_specified());
}

// The randomized property at the heart of the layer: FLOC output is
// byte-identical between backends, at every supported thread count, on
// matrices it has never seen before.
TEST(BackendBlindness, FlocByteIdenticalMemVsMmap) {
  for (uint64_t seed : {1ULL, 17ULL, 42ULL}) {
    SyntheticDataset data = MakeData(seed, seed % 2 == 0 ? 0.0 : 0.1);
    std::string path =
        TempPath("storage_floc_" + std::to_string(seed) + ".dcm");
    WriteDcmFile(data.matrix, path);
    DataMatrix mem = ReadDcmFile(path, MatrixBackend::kMem);
    DataMatrix mmap = ReadDcmFile(path, MatrixBackend::kMmap);

    FlocConfig config;
    config.num_clusters = 3;
    config.rng_seed = seed;
    config.refine_passes = 1;
    config.reseed_rounds = 1;
    for (int threads : {1, 2, 8}) {
      config.threads = threads;
      FlocResult from_mem = Floc(config).Run(mem);
      FlocResult from_mmap = Floc(config).Run(mmap);
      EXPECT_EQ(ClustersAsText(from_mem.clusters),
                ClustersAsText(from_mmap.clusters))
          << "seed " << seed << " threads " << threads;
      ASSERT_EQ(from_mem.residues.size(), from_mmap.residues.size());
      for (size_t c = 0; c < from_mem.residues.size(); ++c) {
        EXPECT_DOUBLE_EQ(from_mem.residues[c], from_mmap.residues[c])
            << "seed " << seed << " threads " << threads << " cluster " << c;
      }
      EXPECT_EQ(from_mem.iterations, from_mmap.iterations);
    }
  }
}

// Audit mode recomputes stats/residue from scratch after every applied
// action, so it exercises the from-scratch read paths over the mmap'd
// planes too; it must neither trip nor perturb the result.
TEST(BackendBlindness, AuditedFlocByteIdenticalMemVsMmap) {
  SyntheticDataset data = MakeData(3, 0.1);
  std::string path = TempPath("storage_floc_audit.dcm");
  WriteDcmFile(data.matrix, path);
  DataMatrix mem = ReadDcmFile(path, MatrixBackend::kMem);
  DataMatrix mmap = ReadDcmFile(path, MatrixBackend::kMmap);

  FlocConfig config;
  config.num_clusters = 3;
  config.rng_seed = 3;
  config.refine_passes = 1;
  config.audit = true;
  for (int threads : {1, 8}) {
    config.threads = threads;
    FlocResult from_mem = Floc(config).Run(mem);
    FlocResult from_mmap = Floc(config).Run(mmap);
    EXPECT_EQ(ClustersAsText(from_mem.clusters),
              ClustersAsText(from_mmap.clusters))
        << "threads " << threads;
    EXPECT_EQ(from_mem.iterations, from_mmap.iterations);
  }
}

TEST(BackendBlindness, ChengChurchByteIdenticalMemVsMmap) {
  // Cheng & Church requires a fully-specified matrix.
  SyntheticDataset data = MakeData(5, 0.0);
  std::string path = TempPath("storage_cc.dcm");
  WriteDcmFile(data.matrix, path);
  DataMatrix mem = ReadDcmFile(path, MatrixBackend::kMem);
  DataMatrix mmap = ReadDcmFile(path, MatrixBackend::kMmap);

  ChengChurchConfig config;
  config.num_clusters = 3;
  config.msr_threshold = 100.0;
  ChengChurchResult from_mem = RunChengChurch(mem, config);
  ChengChurchResult from_mmap = RunChengChurch(mmap, config);
  EXPECT_EQ(ClustersAsText(from_mem.clusters),
            ClustersAsText(from_mmap.clusters));
  ASSERT_EQ(from_mem.msr.size(), from_mmap.msr.size());
  for (size_t c = 0; c < from_mem.msr.size(); ++c) {
    EXPECT_DOUBLE_EQ(from_mem.msr[c], from_mmap.msr[c]) << "cluster " << c;
  }
}

TEST(DcmRejection, TruncatedHeader) {
  std::string path = WriteValidDcm("storage_trunc_header.dcm");
  std::vector<char> bytes = ReadAllBytes(path);
  bytes.resize(storage::kDcmHeaderBytes / 2);
  WriteAllBytes(path, bytes);
  ExpectRejects(path, "truncated");
}

TEST(DcmRejection, TruncatedPayload) {
  std::string path = WriteValidDcm("storage_trunc_payload.dcm");
  std::vector<char> bytes = ReadAllBytes(path);
  ASSERT_GT(bytes.size(), storage::kDcmHeaderBytes + 16);
  bytes.resize(bytes.size() - 16);
  WriteAllBytes(path, bytes);
  ExpectRejects(path, "truncated");
}

TEST(DcmRejection, BadMagic) {
  std::string path = WriteValidDcm("storage_bad_magic.dcm");
  std::vector<char> bytes = ReadAllBytes(path);
  bytes[0] = 'X';
  WriteAllBytes(path, bytes);
  ExpectRejects(path, "bad magic");
}

TEST(DcmRejection, VersionMismatch) {
  std::string path = WriteValidDcm("storage_bad_version.dcm");
  std::vector<char> bytes = ReadAllBytes(path);
  uint32_t future_version = storage::kDcmVersion + 9;
  std::memcpy(bytes.data() + 4, &future_version, sizeof(future_version));
  WriteAllBytes(path, bytes);
  ExpectRejects(path, "version mismatch");
}

TEST(DcmRejection, HeaderChecksumMismatch) {
  std::string path = WriteValidDcm("storage_bad_header.dcm");
  std::vector<char> bytes = ReadAllBytes(path);
  // Corrupt the rows field (offset 16): the header checksum catches it.
  bytes[16] = static_cast<char>(bytes[16] ^ 0x5a);
  WriteAllBytes(path, bytes);
  ExpectRejects(path, "header checksum mismatch");
}

TEST(DcmRejection, PayloadChecksumMismatchOnFullVerifyOnly) {
  std::string path = WriteValidDcm("storage_bad_payload.dcm");
  std::vector<char> bytes = ReadAllBytes(path);
  ASSERT_GT(bytes.size(), storage::kDcmHeaderBytes + 8);
  // Corrupt one plane byte past the header.
  size_t victim = storage::kDcmHeaderBytes + 3;
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x5a);
  WriteAllBytes(path, bytes);

  // The default open is O(header) by contract: plane bytes are not
  // read eagerly, so the corruption goes unnoticed...
  EXPECT_NO_THROW(storage::MmapStore::Open(path));
  // ...and the explicit full-verify opt-in reads every plane byte and
  // rejects, naming the defect.
  ExpectRejects(path, "payload checksum mismatch", storage::DcmVerify::kFull);
}

TEST(DcmRejection, NonFiniteCellOnFullVerifyOnly) {
  // A crafted file whose checksums are valid but whose specified cells
  // hold nan/inf: the full verify must name the cell, in either layout.
  struct Case {
    const char* name;
    double value;
    bool in_row_major;
    const char* defect;
  };
  for (const Case& c :
       {Case{"storage_nan_cell.dcm", std::nan(""), true,
             "non-finite value nan at row "},
        Case{"storage_inf_cell.dcm", -INFINITY, false,
             "non-finite value -inf at row "}}) {
    std::string path = WriteValidDcm(c.name);
    std::vector<char> bytes = ReadAllBytes(path);
    storage::DcmHeader h =
        storage::ParseDcmHeader(bytes.data(), bytes.size(), path);
    auto* buf = reinterpret_cast<uint8_t*>(bytes.data());
    // The first specified cell past row 0, patched in one or both
    // layouts.
    uint64_t idx = h.cols;
    while (buf[h.off_mask_rm + idx] == 0) ++idx;
    uint64_t row = idx / h.cols;
    uint64_t col = idx % h.cols;
    uint64_t cm_idx = col * h.rows + row;
    ASSERT_NE(buf[h.off_mask_cm + cm_idx], 0);
    if (c.in_row_major) {
      std::memcpy(buf + h.off_values_rm + idx * sizeof(double), &c.value,
                  sizeof(double));
    }
    std::memcpy(buf + h.off_values_cm + cm_idx * sizeof(double), &c.value,
                sizeof(double));
    // Re-seal both checksums so only the finiteness check can object.
    uint64_t cells = h.rows * h.cols;
    uint64_t digest = storage::kFnvOffsetBasis;
    for (auto [off, len] :
         {std::pair{h.off_values_rm, cells * 8}, {h.off_mask_rm, cells},
          {h.off_values_cm, cells * 8}, {h.off_mask_cm, cells},
          {h.off_row_specified, h.rows * 8},
          {h.off_col_specified, h.cols * 8}}) {
      digest = storage::Fnv1a64(buf + off, len, digest);
    }
    std::memcpy(buf + 96, &digest, sizeof(digest));
    uint64_t header_checksum = storage::Fnv1a64(buf, 104);
    std::memcpy(buf + 104, &header_checksum, sizeof(header_checksum));
    WriteAllBytes(path, bytes);

    EXPECT_NO_THROW(storage::MmapStore::Open(path));
    std::ostringstream defect;
    defect << c.defect << row << ", column " << col;
    ExpectRejects(path, defect.str(), storage::DcmVerify::kFull);
  }
}

TEST(DcmRejection, MissingFile) {
  ExpectRejects(TempPath("storage_no_such_file.dcm"), "cannot open");
}

}  // namespace
}  // namespace deltaclus
