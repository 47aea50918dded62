// The `.dcm` binary matrix format: the storage layer's on-disk
// representation, designed to be *mapped*, not parsed.
//
// A .dcm file is a fixed 128-byte header followed by the six planes of
// a MatrixStore, each at a 64-byte-aligned offset recorded in the
// header:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//        0     4  magic "dcm1"
//        4     4  u32 format version (currently 1)
//        8     4  u32 endianness tag 0x01020304, written native
//       12     4  u32 header size in bytes (128)
//       16     8  u64 rows
//       24     8  u64 cols
//       32     8  u64 num_specified
//       40    48  u64 plane offsets: values_rm, mask_rm, values_cm,
//                 mask_cm, row_specified, col_specified
//       88     8  u64 total file size in bytes
//       96     8  u64 payload checksum (FNV-1a 64 over the plane bytes,
//                 in plane order)
//      104     8  u64 header checksum (FNV-1a 64 over bytes [0, 104))
//      112    16  reserved, zero
//
// All integers are written in the producing machine's byte order and
// the endianness tag pins it: a consumer on the other endianness gets a
// named rejection, not silently-garbled doubles.
//
// Validation is two-tier so opening stays O(header): magic, version,
// endianness, header checksum, the file-size promise, and every plane's
// offset/extent are checked eagerly from the header alone; the payload
// checksum covers all plane bytes and is verified only on request
// (DcmVerify::kFull, used by `dcm_convert --verify` and the rejection
// tests), together with a check that every specified cell is finite,
// because both read every page the mmap backend exists to avoid
// touching.
#ifndef DELTACLUS_STORAGE_DCM_FORMAT_H_
#define DELTACLUS_STORAGE_DCM_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/storage/matrix_store.h"

namespace deltaclus::storage {

/// Fixed header size; plane data starts at the first 64-byte-aligned
/// offset at or after it.
inline constexpr size_t kDcmHeaderBytes = 128;

/// Format magic ("dcm1") and the current version.
inline constexpr char kDcmMagic[4] = {'d', 'c', 'm', '1'};
inline constexpr uint32_t kDcmVersion = 1;

/// How much of a .dcm file Open-time validation reads. kHeader is the
/// default everywhere: O(header) work, no plane pages touched.
enum class DcmVerify {
  kHeader,  ///< magic/version/endianness/header checksum/offsets only
  kFull,    ///< kHeader plus the payload checksum over all plane bytes
            ///< and a finiteness check of every specified cell
};

/// Parsed, validated header. Offsets are absolute file offsets.
struct DcmHeader {
  uint64_t rows = 0;
  uint64_t cols = 0;
  uint64_t num_specified = 0;
  uint64_t off_values_rm = 0;
  uint64_t off_mask_rm = 0;
  uint64_t off_values_cm = 0;
  uint64_t off_mask_cm = 0;
  uint64_t off_row_specified = 0;
  uint64_t off_col_specified = 0;
  uint64_t file_bytes = 0;
  uint64_t payload_checksum = 0;
};

/// FNV-1a 64-bit over `len` bytes, seeded with `seed` (pass
/// kFnvOffsetBasis to start a fresh digest; chain calls to digest
/// discontiguous regions in order).
inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
uint64_t Fnv1a64(const void* data, size_t len,
                 uint64_t seed = kFnvOffsetBasis);

/// Parses and validates the header of a .dcm image whose first
/// `file_size` bytes start at `data` (only the first kDcmHeaderBytes
/// are read). Throws std::runtime_error naming the defect -- truncated
/// file, bad magic, unsupported version, endianness mismatch, header
/// checksum mismatch, or an out-of-bounds plane -- on any violation.
/// `origin` (typically the path) prefixes every message.
DcmHeader ParseDcmHeader(const void* data, size_t file_size,
                         const std::string& origin);

/// Verifies the payload checksum over the plane bytes of a fully
/// readable image, then that every specified cell of both value planes
/// is finite. Throws std::runtime_error naming the defect ("payload
/// checksum mismatch", or "non-finite value" with its row and column).
void VerifyDcmPayload(const void* data, const DcmHeader& header,
                      const std::string& origin);

/// Serializes `store`'s planes as a .dcm file at `path` (atomically:
/// written to a temporary sibling, then renamed). Throws
/// std::runtime_error on I/O failure.
void WriteDcmFile(const MatrixStore& store, const std::string& path);

/// True if `path` exists, is readable, and starts with the .dcm magic.
/// A cheap sniff for format auto-detection; never throws.
bool LooksLikeDcmFile(const std::string& path);

}  // namespace deltaclus::storage

#endif  // DELTACLUS_STORAGE_DCM_FORMAT_H_
