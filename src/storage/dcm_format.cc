#include "src/storage/dcm_format.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace deltaclus::storage {

namespace {

constexpr uint32_t kEndianTag = 0x01020304u;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;
// The header checksum digests everything before its own field.
constexpr size_t kHeaderChecksumOffset = 104;
constexpr size_t kPlaneAlignment = 64;

uint64_t AlignUp(uint64_t offset, uint64_t alignment) {
  return (offset + alignment - 1) / alignment * alignment;
}

void Store32(uint8_t* buf, size_t offset, uint32_t v) {
  std::memcpy(buf + offset, &v, sizeof(v));
}

void Store64(uint8_t* buf, size_t offset, uint64_t v) {
  std::memcpy(buf + offset, &v, sizeof(v));
}

uint32_t Load32(const uint8_t* buf, size_t offset) {
  uint32_t v = 0;
  std::memcpy(&v, buf + offset, sizeof(v));
  return v;
}

uint64_t Load64(const uint8_t* buf, size_t offset) {
  uint64_t v = 0;
  std::memcpy(&v, buf + offset, sizeof(v));
  return v;
}

[[noreturn]] void Reject(const std::string& origin, const std::string& what) {
  throw std::runtime_error(origin + ": not a valid .dcm file: " + what);
}

struct PlaneExtent {
  uint64_t offset;
  uint64_t bytes;
  const char* name;
};

/// The six planes in file order, with their byte sizes for an
/// rows x cols matrix.
std::vector<PlaneExtent> PlaneExtents(const DcmHeader& h) {
  uint64_t cells = h.rows * h.cols;
  return {
      {h.off_values_rm, cells * sizeof(double), "values_rm"},
      {h.off_mask_rm, cells * sizeof(uint8_t), "mask_rm"},
      {h.off_values_cm, cells * sizeof(double), "values_cm"},
      {h.off_mask_cm, cells * sizeof(uint8_t), "mask_cm"},
      {h.off_row_specified, h.rows * sizeof(uint64_t), "row_specified"},
      {h.off_col_specified, h.cols * sizeof(uint64_t), "col_specified"},
  };
}

/// Rejects the first specified non-finite cell of one values/mask plane
/// pair, naming its (0-based) row and column. `row_major` says how a
/// cell index maps back to (row, column).
void RejectNonFinite(const uint8_t* buf, const DcmHeader& h,
                     uint64_t values_off, uint64_t mask_off, bool row_major,
                     const std::string& origin) {
  uint64_t cells = h.rows * h.cols;
  for (uint64_t idx = 0; idx < cells; ++idx) {
    if (buf[mask_off + idx] == 0) continue;
    double v = 0.0;
    std::memcpy(&v, buf + values_off + idx * sizeof(double), sizeof(v));
    if (std::isfinite(v)) continue;
    uint64_t row = row_major ? idx / h.cols : idx % h.rows;
    uint64_t col = row_major ? idx % h.cols : idx / h.rows;
    std::ostringstream os;
    os << "non-finite value " << v << " at row " << row << ", column "
       << col << " (" << (row_major ? "values_rm" : "values_cm")
       << " plane; specified cells must be finite numbers)";
    Reject(origin, os.str());
  }
}

}  // namespace

uint64_t Fnv1a64(const void* data, size_t len, uint64_t seed) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint64_t hash = seed;
  for (size_t idx = 0; idx < len; ++idx) {
    hash ^= bytes[idx];
    hash *= kFnvPrime;
  }
  return hash;
}

DcmHeader ParseDcmHeader(const void* data, size_t file_size,
                         const std::string& origin) {
  if (file_size < kDcmHeaderBytes) {
    std::ostringstream os;
    os << "truncated (" << file_size << " bytes, header needs "
       << kDcmHeaderBytes << ")";
    Reject(origin, os.str());
  }
  const auto* buf = static_cast<const uint8_t*>(data);
  if (std::memcmp(buf, kDcmMagic, sizeof(kDcmMagic)) != 0) {
    Reject(origin, "bad magic (expected \"dcm1\")");
  }
  uint32_t version = Load32(buf, 4);
  if (version != kDcmVersion) {
    std::ostringstream os;
    os << "version mismatch (file has version " << version << ", reader "
       << "supports " << kDcmVersion << ")";
    Reject(origin, os.str());
  }
  if (Load32(buf, 8) != kEndianTag) {
    Reject(origin, "endianness mismatch (written on a machine with the "
                   "opposite byte order)");
  }
  if (Load32(buf, 12) != kDcmHeaderBytes) {
    Reject(origin, "unexpected header size");
  }
  uint64_t stored_header_checksum = Load64(buf, kHeaderChecksumOffset);
  uint64_t computed = Fnv1a64(buf, kHeaderChecksumOffset);
  if (stored_header_checksum != computed) {
    Reject(origin, "header checksum mismatch (corrupt header)");
  }

  DcmHeader h;
  h.rows = Load64(buf, 16);
  h.cols = Load64(buf, 24);
  h.num_specified = Load64(buf, 32);
  h.off_values_rm = Load64(buf, 40);
  h.off_mask_rm = Load64(buf, 48);
  h.off_values_cm = Load64(buf, 56);
  h.off_mask_cm = Load64(buf, 64);
  h.off_row_specified = Load64(buf, 72);
  h.off_col_specified = Load64(buf, 80);
  h.file_bytes = Load64(buf, 88);
  h.payload_checksum = Load64(buf, 96);

  if (h.rows == 0 || h.cols == 0) {
    Reject(origin, "empty matrix (zero rows or columns)");
  }
  // Guard rows*cols against uint64 overflow before using it for extents.
  if (h.cols != 0 && h.rows > UINT64_MAX / h.cols / sizeof(double)) {
    Reject(origin, "implausible dimensions (plane size overflows)");
  }
  if (h.num_specified > h.rows * h.cols) {
    Reject(origin, "num_specified exceeds rows*cols");
  }
  if (h.file_bytes > file_size) {
    std::ostringstream os;
    os << "truncated (header promises " << h.file_bytes
       << " bytes, file has " << file_size << ")";
    Reject(origin, os.str());
  }
  for (const PlaneExtent& plane : PlaneExtents(h)) {
    if (plane.offset < kDcmHeaderBytes ||
        plane.offset % alignof(uint64_t) != 0 ||
        plane.offset > h.file_bytes ||
        plane.bytes > h.file_bytes - plane.offset) {
      std::ostringstream os;
      os << "plane " << plane.name << " out of bounds (offset "
         << plane.offset << ", " << plane.bytes << " bytes, file "
         << h.file_bytes << " bytes)";
      Reject(origin, os.str());
    }
  }
  return h;
}

void VerifyDcmPayload(const void* data, const DcmHeader& header,
                      const std::string& origin) {
  const auto* buf = static_cast<const uint8_t*>(data);
  uint64_t digest = kFnvOffsetBasis;
  for (const PlaneExtent& plane : PlaneExtents(header)) {
    digest = Fnv1a64(buf + plane.offset, plane.bytes, digest);
  }
  if (digest != header.payload_checksum) {
    Reject(origin, "payload checksum mismatch (corrupt plane data)");
  }
  // A specified cell must be finite, the policy ReadCsv and
  // DataMatrix::Set enforce: one nan turns every residue it touches into
  // nan. Both layouts are checked because the kernels read both.
  RejectNonFinite(buf, header, header.off_values_rm, header.off_mask_rm,
                  /*row_major=*/true, origin);
  RejectNonFinite(buf, header, header.off_values_cm, header.off_mask_cm,
                  /*row_major=*/false, origin);
}

void WriteDcmFile(const MatrixStore& store, const std::string& path) {
  DcmHeader h;
  h.rows = store.rows();
  h.cols = store.cols();
  h.num_specified = store.num_specified();
  uint64_t cells = h.rows * h.cols;
  uint64_t offset = AlignUp(kDcmHeaderBytes, kPlaneAlignment);
  h.off_values_rm = offset;
  offset = AlignUp(offset + cells * sizeof(double), kPlaneAlignment);
  h.off_mask_rm = offset;
  offset = AlignUp(offset + cells * sizeof(uint8_t), kPlaneAlignment);
  h.off_values_cm = offset;
  offset = AlignUp(offset + cells * sizeof(double), kPlaneAlignment);
  h.off_mask_cm = offset;
  offset = AlignUp(offset + cells * sizeof(uint8_t), kPlaneAlignment);
  h.off_row_specified = offset;
  offset = AlignUp(offset + h.rows * sizeof(uint64_t), kPlaneAlignment);
  h.off_col_specified = offset;
  h.file_bytes = offset + h.cols * sizeof(uint64_t);

  // Digest the planes in file order, row/column at a time through the
  // span accessors, so the writer works against any backend.
  uint64_t digest = kFnvOffsetBasis;
  for (size_t i = 0; i < store.rows(); ++i) {
    auto row = store.RowValues(i);
    digest = Fnv1a64(row.data(), row.size_bytes(), digest);
  }
  for (size_t i = 0; i < store.rows(); ++i) {
    auto row = store.RowMask(i);
    digest = Fnv1a64(row.data(), row.size_bytes(), digest);
  }
  for (size_t j = 0; j < store.cols(); ++j) {
    auto col = store.ColValues(j);
    digest = Fnv1a64(col.data(), col.size_bytes(), digest);
  }
  for (size_t j = 0; j < store.cols(); ++j) {
    auto col = store.ColMask(j);
    digest = Fnv1a64(col.data(), col.size_bytes(), digest);
  }
  auto row_counts = store.RowSpecifiedCounts();
  digest = Fnv1a64(row_counts.data(), row_counts.size_bytes(), digest);
  auto col_counts = store.ColSpecifiedCounts();
  digest = Fnv1a64(col_counts.data(), col_counts.size_bytes(), digest);
  h.payload_checksum = digest;

  uint8_t header_buf[kDcmHeaderBytes] = {};
  std::memcpy(header_buf, kDcmMagic, sizeof(kDcmMagic));
  Store32(header_buf, 4, kDcmVersion);
  Store32(header_buf, 8, kEndianTag);
  Store32(header_buf, 12, kDcmHeaderBytes);
  Store64(header_buf, 16, h.rows);
  Store64(header_buf, 24, h.cols);
  Store64(header_buf, 32, h.num_specified);
  Store64(header_buf, 40, h.off_values_rm);
  Store64(header_buf, 48, h.off_mask_rm);
  Store64(header_buf, 56, h.off_values_cm);
  Store64(header_buf, 64, h.off_mask_cm);
  Store64(header_buf, 72, h.off_row_specified);
  Store64(header_buf, 80, h.off_col_specified);
  Store64(header_buf, 88, h.file_bytes);
  Store64(header_buf, 96, h.payload_checksum);
  Store64(header_buf, kHeaderChecksumOffset,
          Fnv1a64(header_buf, kHeaderChecksumOffset));

  std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("cannot open '" + tmp_path +
                               "' for writing");
    }
    auto write_bytes = [&out](const void* data, size_t len) {
      out.write(static_cast<const char*>(data),
                static_cast<std::streamsize>(len));
    };
    auto pad_to = [&](uint64_t target) {
      static constexpr char kZeros[kPlaneAlignment] = {};
      auto pos = static_cast<uint64_t>(out.tellp());
      while (pos < target) {
        uint64_t chunk = target - pos < kPlaneAlignment ? target - pos
                                                        : kPlaneAlignment;
        write_bytes(kZeros, chunk);
        pos += chunk;
      }
    };
    write_bytes(header_buf, kDcmHeaderBytes);
    pad_to(h.off_values_rm);
    for (size_t i = 0; i < store.rows(); ++i) {
      auto row = store.RowValues(i);
      write_bytes(row.data(), row.size_bytes());
    }
    pad_to(h.off_mask_rm);
    for (size_t i = 0; i < store.rows(); ++i) {
      auto row = store.RowMask(i);
      write_bytes(row.data(), row.size_bytes());
    }
    pad_to(h.off_values_cm);
    for (size_t j = 0; j < store.cols(); ++j) {
      auto col = store.ColValues(j);
      write_bytes(col.data(), col.size_bytes());
    }
    pad_to(h.off_mask_cm);
    for (size_t j = 0; j < store.cols(); ++j) {
      auto col = store.ColMask(j);
      write_bytes(col.data(), col.size_bytes());
    }
    pad_to(h.off_row_specified);
    write_bytes(row_counts.data(), row_counts.size_bytes());
    pad_to(h.off_col_specified);
    write_bytes(col_counts.data(), col_counts.size_bytes());
    out.flush();
    if (!out) {
      std::remove(tmp_path.c_str());
      throw std::runtime_error("failed writing '" + tmp_path + "'");
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    throw std::runtime_error("cannot move '" + tmp_path + "' to '" + path +
                             "'");
  }
}

bool LooksLikeDcmFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[sizeof(kDcmMagic)] = {};
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kDcmMagic, sizeof(kDcmMagic)) == 0;
}

}  // namespace deltaclus::storage
