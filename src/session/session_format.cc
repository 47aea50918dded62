#include "src/session/session_format.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <stdexcept>

#include "src/storage/dcm_format.h"

namespace deltaclus::session {

namespace {

using storage::Fnv1a64;
using storage::kFnvOffsetBasis;

constexpr uint32_t kEndianTag = 0x01020304u;
// The header checksum digests everything before its own field.
constexpr size_t kHeaderChecksumOffset = 64;

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
  throw std::runtime_error(origin + ": not a valid .dcs file: " + what);
}

/// Append-only payload encoder. Multi-byte values are memcpy'd in
/// native byte order (the header's endianness tag pins it); doubles
/// travel as their exact bit patterns, never through text.
class PayloadWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void String(const std::string& s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }
  void Ids(const std::vector<uint32_t>& ids) {
    U64(ids.size());
    Raw(ids.data(), ids.size() * sizeof(uint32_t));
  }
  void Members(const ClusterMembers& m) {
    Ids(m.rows);
    Ids(m.cols);
  }
  const std::vector<uint8_t>& bytes() const { return buf_; }

 private:
  void Raw(const void* data, size_t len) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }
  std::vector<uint8_t> buf_;
};

/// Bounds-checked payload decoder: every read that would run past the
/// declared payload size is a named rejection, so a truncated or
/// length-corrupted payload can never read out of bounds or allocate
/// absurd vectors.
class PayloadReader {
 public:
  PayloadReader(const uint8_t* data, size_t len, const std::string& origin)
      : data_(data), len_(len), origin_(origin) {}

  uint8_t U8() {
    Need(1, "value");
    return data_[pos_++];
  }
  uint32_t U32() {
    Need(sizeof(uint32_t), "value");
    uint32_t v = Load32(data_, pos_);
    pos_ += sizeof(uint32_t);
    return v;
  }
  uint64_t U64() {
    Need(sizeof(uint64_t), "value");
    uint64_t v = Load64(data_, pos_);
    pos_ += sizeof(uint64_t);
    return v;
  }
  double F64() {
    uint64_t bits = U64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string String() {
    uint64_t n = U64();
    Need(n, "string");
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return s;
  }
  std::vector<uint32_t> Ids(uint64_t bound, const char* what) {
    uint64_t n = U64();
    // Divide rather than multiply so a corrupt length cannot overflow
    // the byte count into a small number.
    if (n > (len_ - pos_) / sizeof(uint32_t)) {
      std::ostringstream os;
      os << "payload truncated reading " << what << " list (" << n
         << " ids at offset " << pos_ << ", payload has " << len_ << ")";
      Reject(origin_, os.str());
    }
    std::vector<uint32_t> ids(static_cast<size_t>(n));
    std::memcpy(ids.data(), data_ + pos_, ids.size() * sizeof(uint32_t));
    pos_ += ids.size() * sizeof(uint32_t);
    for (uint32_t id : ids) {
      if (id >= bound) {
        std::ostringstream os;
        os << what << " id " << id << " out of bounds (matrix has " << bound
           << ")";
        Reject(origin_, os.str());
      }
    }
    return ids;
  }
  ClusterMembers Members(uint64_t rows, uint64_t cols) {
    ClusterMembers m;
    m.rows = Ids(rows, "cluster row");
    m.cols = Ids(cols, "cluster column");
    return m;
  }
  bool exhausted() const { return pos_ == len_; }

 private:
  void Need(uint64_t n, const char* what) {
    if (n > len_ - pos_) {
      std::ostringstream os;
      os << "payload truncated reading " << what << " (need " << n
         << " bytes at offset " << pos_ << ", payload has " << len_ << ")";
      Reject(origin_, os.str());
    }
  }
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  const std::string& origin_;
};

}  // namespace

uint64_t FingerprintConfig(const FlocConfig& config, uint64_t rows,
                           uint64_t cols, uint64_t k) {
  // Serialize every result-affecting field into a scratch buffer and
  // digest it. Threads/pool never enter (results are thread-count
  // invariant by the engine's sharding contract), nor do audit,
  // telemetry, or the session budgets (they change what is checked,
  // recorded, or *when the run pauses* -- never which clustering a
  // completed trajectory produces).
  PayloadWriter w;
  w.U64(rows);
  w.U64(cols);
  w.U64(k);
  w.F64(config.seeding.row_probability);
  w.F64(config.seeding.col_probability);
  w.U8(config.seeding.mixed_volumes ? 1 : 0);
  w.F64(config.seeding.volume_mean);
  w.F64(config.seeding.volume_variance);
  // Former config fields, now constants: kept at their byte positions
  // so existing fingerprints (and the checkpoints carrying them) match.
  w.U64(kMinSeedSide);
  w.U64(kMinSeedSide);
  w.F64(config.constraints.alpha);
  w.U64(config.constraints.min_rows);
  w.U64(config.constraints.min_cols);
  w.U64(config.constraints.max_rows);
  w.U64(config.constraints.max_cols);
  w.U64(config.constraints.min_volume);
  w.U64(config.constraints.max_volume);
  w.F64(config.constraints.max_overlap);
  w.F64(config.constraints.min_row_coverage);
  w.F64(config.constraints.min_col_coverage);
  w.U32(static_cast<uint32_t>(config.ordering));
  // The former norm field, now always the mean absolute residue.
  w.U32(static_cast<uint32_t>(ResidueNorm::kMeanAbsolute));
  w.F64(config.target_residue);
  w.U64(config.max_iterations);
  w.F64(kMinImprovement);
  w.F64(config.relative_improvement);
  w.U8(config.fresh_gains_at_apply ? 1 : 0);
  w.U8(config.perform_negative_actions ? 1 : 0);
  w.F64(config.annealing_temperature);
  w.U64(config.reseed_rounds);
  w.U64(config.refine_passes);
  w.U64(config.rng_seed);
  return Fnv1a64(w.bytes().data(), w.bytes().size());
}

uint64_t FingerprintMatrix(const DataMatrix& matrix) {
  // Chain the digest one row at a time through a small scratch buffer
  // instead of materializing the whole matrix: 9 bytes per cell -- a
  // presence byte plus, for specified entries, the value's exact bits.
  uint64_t hash = kFnvOffsetBasis;
  std::vector<uint8_t> row_buf;
  row_buf.reserve(matrix.cols() * 9);
  for (size_t i = 0; i < matrix.rows(); ++i) {
    row_buf.clear();
    for (size_t j = 0; j < matrix.cols(); ++j) {
      if (matrix.IsSpecified(i, j)) {
        row_buf.push_back(1);
        double v = matrix.Value(i, j);
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        for (size_t b = 0; b < sizeof(bits); ++b) {
          row_buf.push_back(static_cast<uint8_t>(bits >> (8 * b)));
        }
      } else {
        row_buf.push_back(0);
      }
    }
    hash = Fnv1a64(row_buf.data(), row_buf.size(), hash);
  }
  return hash;
}

void WriteSessionCheckpoint(const SessionCheckpoint& cp,
                            const std::string& path) {
  PayloadWriter w;
  w.U64(cp.matrix_fingerprint);
  w.U32(cp.state);
  w.U64(cp.round);
  w.U64(cp.move_iteration);
  w.U64(cp.total_iterations);
  w.U8(cp.seeds_compliant);
  w.U8(cp.pending_restore);
  w.F64(cp.best_average);
  w.F64(cp.prior_elapsed_seconds);
  w.F64(cp.walls.seeding);
  w.F64(cp.walls.move_phase);
  w.F64(cp.walls.determine);
  w.F64(cp.walls.apply);
  w.F64(cp.walls.refine);
  w.F64(cp.walls.reseed);
  w.String(cp.rng_state);
  for (const ClusterMembers& m : cp.clusters) w.Members(m);
  w.U64(cp.stagnant.size());
  for (uint64_t c : cp.stagnant) w.U64(c);
  w.U64(cp.saved.size());
  for (const ClusterMembers& m : cp.saved) w.Members(m);
  w.U64(cp.saved_scores.size());
  for (double s : cp.saved_scores) w.F64(s);
  const std::vector<uint8_t>& payload = w.bytes();

  uint8_t header[kDcsHeaderBytes] = {};
  std::memcpy(header, kDcsMagic, sizeof(kDcsMagic));
  Store32(header, 4, kDcsVersion);
  Store32(header, 8, kEndianTag);
  Store32(header, 12, kDcsHeaderBytes);
  Store64(header, 16, cp.rows);
  Store64(header, 24, cp.cols);
  Store64(header, 32, cp.clusters.size());
  Store64(header, 40, payload.size());
  Store64(header, 48, Fnv1a64(payload.data(), payload.size()));
  Store64(header, 56, cp.config_fingerprint);
  Store64(header, kHeaderChecksumOffset,
          Fnv1a64(header, kHeaderChecksumOffset));

  std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("cannot open '" + tmp_path + "' for writing");
    }
    out.write(reinterpret_cast<const char*>(header), kDcsHeaderBytes);
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
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

SessionCheckpoint ReadSessionCheckpoint(const std::string& path,
                                        const std::string& origin) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open '" + path + "' for reading");
  }
  std::vector<uint8_t> file((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  if (file.size() < kDcsHeaderBytes) {
    std::ostringstream os;
    os << "truncated (" << file.size() << " bytes, header needs "
       << kDcsHeaderBytes << ")";
    Reject(origin, os.str());
  }
  const uint8_t* buf = file.data();
  if (std::memcmp(buf, kDcsMagic, sizeof(kDcsMagic)) != 0) {
    Reject(origin, "bad magic (expected \"dcs1\")");
  }
  uint32_t version = Load32(buf, 4);
  if (version != kDcsVersion) {
    std::ostringstream os;
    os << "version mismatch (file has version " << version << ", reader "
       << "supports " << kDcsVersion << ")";
    Reject(origin, os.str());
  }
  if (Load32(buf, 8) != kEndianTag) {
    Reject(origin, "endianness mismatch (written on a machine with the "
                   "opposite byte order)");
  }
  if (Load32(buf, 12) != kDcsHeaderBytes) {
    Reject(origin, "unexpected header size");
  }
  if (Load64(buf, kHeaderChecksumOffset) !=
      Fnv1a64(buf, kHeaderChecksumOffset)) {
    Reject(origin, "header checksum mismatch (corrupt header)");
  }

  SessionCheckpoint cp;
  cp.rows = Load64(buf, 16);
  cp.cols = Load64(buf, 24);
  uint64_t k = Load64(buf, 32);
  uint64_t payload_bytes = Load64(buf, 40);
  uint64_t payload_checksum = Load64(buf, 48);
  cp.config_fingerprint = Load64(buf, 56);

  if (cp.rows == 0 || cp.cols == 0) {
    Reject(origin, "empty matrix shape (zero rows or columns)");
  }
  if (payload_bytes != file.size() - kDcsHeaderBytes) {
    std::ostringstream os;
    os << "truncated (header promises " << payload_bytes
       << " payload bytes, file carries " << file.size() - kDcsHeaderBytes
       << ")";
    Reject(origin, os.str());
  }
  // Every cluster encodes at least its two id-list lengths, so a k the
  // payload cannot hold is rejected before anything is sized from it.
  constexpr uint64_t kMinClusterBytes = 2 * 8;
  if (k > payload_bytes / kMinClusterBytes) {
    std::ostringstream os;
    os << "cluster count " << k << " exceeds what the " << payload_bytes
       << "-byte payload can hold";
    Reject(origin, os.str());
  }
  const uint8_t* payload = buf + kDcsHeaderBytes;
  if (Fnv1a64(payload, payload_bytes) != payload_checksum) {
    Reject(origin, "payload checksum mismatch (corrupt session state)");
  }

  PayloadReader r(payload, static_cast<size_t>(payload_bytes), origin);
  cp.matrix_fingerprint = r.U64();
  cp.state = r.U32();
  cp.round = r.U64();
  cp.move_iteration = r.U64();
  cp.total_iterations = r.U64();
  cp.seeds_compliant = r.U8();
  cp.pending_restore = r.U8();
  cp.best_average = r.F64();
  cp.prior_elapsed_seconds = r.F64();
  cp.walls.seeding = r.F64();
  cp.walls.move_phase = r.F64();
  cp.walls.determine = r.F64();
  cp.walls.apply = r.F64();
  cp.walls.refine = r.F64();
  cp.walls.reseed = r.F64();
  cp.rng_state = r.String();
  cp.clusters.reserve(static_cast<size_t>(k));
  for (uint64_t c = 0; c < k; ++c) {
    cp.clusters.push_back(r.Members(cp.rows, cp.cols));
  }
  uint64_t stagnant = r.U64();
  for (uint64_t t = 0; t < stagnant; ++t) {
    uint64_t c = r.U64();
    if (c >= k) {
      std::ostringstream os;
      os << "stagnant slot " << c << " out of bounds (run has " << k
         << " clusters)";
      Reject(origin, os.str());
    }
    cp.stagnant.push_back(c);
  }
  uint64_t saved = r.U64();
  for (uint64_t t = 0; t < saved; ++t) {
    cp.saved.push_back(r.Members(cp.rows, cp.cols));
  }
  uint64_t saved_scores = r.U64();
  for (uint64_t t = 0; t < saved_scores; ++t) {
    cp.saved_scores.push_back(r.F64());
  }

  if (cp.state > 3) {
    Reject(origin, "unknown state-machine position");
  }
  {
    // Probe-parse the RNG stream now so a resumed session never starts
    // from a silently default-constructed engine.
    std::istringstream is(cp.rng_state);
    std::mt19937_64 probe;
    is >> probe;
    if (!is) Reject(origin, "unparseable RNG engine state");
  }
  if (cp.saved.size() != cp.stagnant.size() ||
      cp.saved_scores.size() != cp.stagnant.size()) {
    Reject(origin, "reseed save-slot arrays disagree in length");
  }
  if (cp.pending_restore != 0 && cp.stagnant.empty()) {
    Reject(origin, "pending restore with no reseeded slots");
  }
  if (!r.exhausted()) {
    Reject(origin, "trailing bytes after the payload");
  }
  return cp;
}

bool LooksLikeDcsFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[sizeof(kDcsMagic)] = {};
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kDcsMagic, sizeof(kDcsMagic)) == 0;
}

}  // namespace deltaclus::session
