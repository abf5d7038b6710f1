#ifndef WQE_STORE_FORMAT_H_
#define WQE_STORE_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace wqe::store {

/// On-disk artifact container (DESIGN.md "Persistence"). Every snapshot file
/// is a fixed header followed by one length-prefixed payload:
///
///   magic   u32  'WQES'
///   version u32  bumped on any incompatible payload change
///   kind    u32  ArtifactKind of the payload
///   flags   u32  reserved (0)
///   key     u64  graph fingerprint the artifact was built against
///   params  u64  hash of the builder parameters (index options, format rev)
///   size    u64  payload byte count
///   check   u64  FNV-1a checksum of the payload
///
/// Readers verify every header field *and* the checksum before touching the
/// payload, and the payload decoder bounds-checks every read, so a truncated,
/// corrupted, or version-skewed file degrades to Status (callers rebuild) —
/// never a crash and never a silently wrong artifact. Integers are fixed-width
/// little-endian (the only byte order this repo targets).
inline constexpr uint32_t kMagic = 0x53455157u;  // "WQES"
/// v2: headers serialized field-by-field (no raw-struct writes), and the
/// store gained the mmap'd columnar bundle (ArtifactKind::kMmapBundle).
inline constexpr uint32_t kFormatVersion = 2;

/// On-disk container header size. The header is written and read field-by-
/// field through Writer/Reader — never as a raw struct — so compiler padding
/// can neither leak into the file nor shift a field; this constant pins the
/// layout (4 u32 fields + 4 u64 fields, in the order documented above).
inline constexpr size_t kHeaderBytes = 4 * sizeof(uint32_t) + 4 * sizeof(uint64_t);
static_assert(kHeaderBytes == 48, "on-disk header layout is pinned");

enum class ArtifactKind : uint32_t {
  // Reserved (1-4): per-artifact snapshots of the graph, active domains,
  // diameter and distance index, no longer written or read — the bundle
  // carries all four. The numbers stay taken so an old file is recognised
  // by name and never mistaken for another kind.
  kGraph = 1,
  kAdom = 2,
  kDiameter = 3,
  kDistanceIndex = 4,
  kStarViews = 5,
  kMmapBundle = 6,  // zero-copy columnar graph+index bundle (mmap_layout.h)
};

const char* ArtifactKindName(ArtifactKind kind);

/// FNV-1a 64-bit over `bytes`, chainable via `seed`.
uint64_t Fnv1a(std::string_view bytes, uint64_t seed = 14695981039346656037ull);

/// Order-sensitive hash of a small tuple of integers (parameter hashes).
uint64_t HashU64s(std::initializer_list<uint64_t> values);

/// Append-only little-endian encoder. All multi-byte writes go through
/// memcpy, so the buffer is safe to hand to any aligned reader.
class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Pod(v); }
  void U64(uint64_t v) { Pod(v); }
  void F64(double v) { Pod(v); }

  /// Length-prefixed string.
  void Str(std::string_view s) {
    U64(s.size());
    buf_.append(s.data(), s.size());
  }

  /// Length-prefixed bulk vector of trivially-copyable elements.
  template <typename T>
  void PodVec(const std::vector<T>& v) {
    PodVec(std::span<const T>(v));
  }

  /// Span overload: the columnar graph/index views expose spans (heap- or
  /// mmap-backed), and both must encode byte-identically to the vector path.
  template <typename T>
  void PodVec(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    U64(v.size());
    if (!v.empty()) {
      buf_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
    }
  }

  const std::string& bytes() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  template <typename T>
  void Pod(T v) {
    char tmp[sizeof(T)];
    std::memcpy(tmp, &v, sizeof(T));
    buf_.append(tmp, sizeof(T));
  }

  std::string buf_;
};

/// Bounds-checked decoder over a loaded payload. Every accessor returns a
/// Status instead of reading past the end, and element counts are validated
/// against the remaining byte budget before any allocation, so a corrupt
/// length field cannot trigger a pathological resize.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : data_(bytes) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  Status U8(uint8_t* out);
  Status U32(uint32_t* out);
  Status U64(uint64_t* out);
  Status F64(double* out);
  Status Str(std::string* out);

  /// Reads a length-prefixed bulk vector written by Writer::PodVec.
  template <typename T>
  Status PodVec(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t n = 0;
    if (Status s = U64(&n); !s.ok()) return s;
    if (n > remaining() / sizeof(T)) return Truncated("vector");
    out->resize(static_cast<size_t>(n));
    if (n > 0) {
      std::memcpy(out->data(), data_.data() + pos_,
                  static_cast<size_t>(n) * sizeof(T));
      pos_ += static_cast<size_t>(n) * sizeof(T);
    }
    return Status::OK();
  }

  /// Validates that a decoded element count is plausible for the bytes left
  /// (each element needs at least `min_bytes`); rejects corrupt counts before
  /// the caller allocates.
  Status CheckCount(uint64_t n, size_t min_bytes, const char* what) const;

 private:
  Status Truncated(const char* what) const {
    return Status::OutOfRange(std::string("truncated artifact payload: ") +
                              what);
  }

  template <typename T>
  Status Pod(T* out, const char* what) {
    if (remaining() < sizeof(T)) return Truncated(what);
    std::memcpy(out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

/// Wraps `payload` in the checksummed container header.
std::string SealFile(ArtifactKind kind, uint64_t key, uint64_t params,
                     std::string payload);

/// Verifies the container header against the expected kind/key/params and the
/// payload checksum; on success points `payload` into `bytes` (zero-copy —
/// `bytes` must outlive the returned view).
Status OpenFile(std::string_view bytes, ArtifactKind kind, uint64_t key,
                uint64_t params, std::string_view* payload);

}  // namespace wqe::store

#endif  // WQE_STORE_FORMAT_H_
