#ifndef WQE_STORE_MMAP_LAYOUT_H_
#define WQE_STORE_MMAP_LAYOUT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "graph/adom.h"
#include "graph/distance_index.h"
#include "graph/graph.h"
#include "store/format.h"

namespace wqe::store {

/// Store v2 zero-copy bundle (DESIGN.md "Persistence"). One `bundle.wqes`
/// file carries the whole serving state of a graph — columnar graph arrays
/// (CSR adjacency, label/name/attr columns, label buckets, the staged edge
/// list) plus the flat PLL distance index and the small heap-decoded
/// artifacts (schema, active domains, diameter) — laid out so readers mmap
/// the file read-only and serve straight out of the page cache:
///
///   header    field-by-field little-endian (kBundleHeaderBytes, below)
///   TOC       one 40-byte entry per section shard: id, shard, absolute
///             offset, byte length, element count, FNV-1a checksum
///   meta      Writer-encoded schema + adom + diameter + index flag
///   sections  raw columns, each section start 64-byte aligned; sharded
///             sections store their shards back-to-back so the hot path
///             reads one contiguous global span while per-shard checksums
///             (and the deterministic node partition) let a later
///             multi-process/multi-machine split verify shards alone
///
/// Variable-per-node payload columns (adjacency, attr cells, name bytes,
/// PLL cells) are sharded by the node partition
/// `shard(v) = v / ceil(n / num_shards)`; fixed-width per-node columns and
/// the offset arrays stay single-section (they are the "offset table" every
/// shard shares). No decode step: Open() verifies and attaches
/// `Graph`/`DistanceIndex` views directly to the mapping, so cold start is
/// O(header + TOC) work plus demand paging, and N concurrent processes
/// share one physical copy.
///
/// Every failure mode — truncated file, bit flip, version skew, wrong key,
/// short mmap — degrades to a non-OK Status; callers fall back to the heap
/// path and rebuild the bundle.

/// Read-only memory mapping with RAII unmap. Shared ownership: attached
/// graphs/indexes hold the mapping alive via shared_ptr.
class MmapFile {
 public:
  static Status Open(const std::string& path, std::shared_ptr<MmapFile>* out);
  ~MmapFile();

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  std::string_view bytes() const {
    return {static_cast<const char*>(addr_), size_};
  }

 private:
  MmapFile(void* addr, size_t size) : addr_(addr), size_(size) {}
  void* addr_;
  size_t size_;
};

/// Bundle header field count pin: 6 u32 + 8 u64, written field-by-field.
inline constexpr size_t kBundleHeaderBytes =
    6 * sizeof(uint32_t) + 8 * sizeof(uint64_t);
static_assert(kBundleHeaderBytes == 88, "on-disk bundle header is pinned");

/// Section starts are aligned so mapped columns satisfy their element
/// alignment (max 8) with headroom for future wider cells.
inline constexpr size_t kSectionAlign = 64;

/// One TOC entry: 2 u32 + 4 u64, field-by-field.
inline constexpr size_t kTocEntryBytes = 2 * sizeof(uint32_t) + 4 * sizeof(uint64_t);
static_assert(kTocEntryBytes == 40, "on-disk TOC entry is pinned");

struct BundleWriteOptions {
  /// Node-partition shard count for the payload columns; 0 picks
  /// clamp(ceil(n / 65536), 1, 64) — one shard per ~64k nodes.
  size_t num_shards = 0;
};

/// How much of the file Open() inspects before serving from it.
enum class BundleVerify {
  /// Verify header + TOC checksum + every section checksum and the offset
  /// arrays' structural invariants. Pages the whole file in (one linear
  /// FNV-1a scan) — still far cheaper than a heap decode, and the default
  /// because a bit flip must surface as Status, not as a wrong answer.
  kFull,
  /// Verify header + TOC checksum + section geometry only. True O(TOC)
  /// cold start for trusted local files (e.g. written moments ago by the
  /// same process).
  kHeaderOnly,
};

struct BundleOpenOptions {
  BundleVerify verify = BundleVerify::kFull;
};

/// Writes the bundle for a finalized graph + its prebuilt indexes. `key` and
/// `params` mirror the format.h container fields (caller-chosen source key and
/// builder-parameter hash); Serde::GraphFingerprint(g) is recorded alongside
/// so attached graphs answer fingerprint queries without re-encoding.
/// Atomic: temp file + rename.
Status WriteBundle(const std::string& path, const Graph& g,
                   const ActiveDomains& adom, uint32_t diameter,
                   const DistanceIndex& dist, uint64_t key, uint64_t params,
                   const BundleWriteOptions& opts = {});

/// An opened bundle: the mapping plus the graph and indexes attached to it
/// zero-copy. Heap-pinned (non-movable) because the attached DistanceIndex
/// references the bundle-owned Graph.
class MappedBundle {
 public:
  /// Maps `path`, verifies it against `key`/`params` per `opts`, and
  /// attaches. NotFound when the file is absent; any validation failure is
  /// InvalidArgument/OutOfRange and the caller should rebuild.
  static Status Open(const std::string& path, uint64_t key, uint64_t params,
                     const BundleOpenOptions& opts,
                     std::unique_ptr<MappedBundle>* out);

  MappedBundle(const MappedBundle&) = delete;
  MappedBundle& operator=(const MappedBundle&) = delete;

  const Graph& graph() const { return graph_; }

  uint32_t diameter() const { return diameter_; }

  /// Moves the restored active domains out (heap-decoded; call once).
  ActiveDomains TakeAdom();

  /// Moves the attached distance index out (view into the mapping; the
  /// returned index keeps the mapping alive on its own — call once). It
  /// still references this bundle's graph(), so the bundle must outlive it.
  DistanceIndex TakeDist();

 private:
  MappedBundle() = default;

  std::shared_ptr<MmapFile> map_;
  Graph graph_;
  std::optional<ActiveDomains> adom_;
  uint32_t diameter_ = 0;
  std::optional<DistanceIndex> dist_;
};

}  // namespace wqe::store

#endif  // WQE_STORE_MMAP_LAYOUT_H_
