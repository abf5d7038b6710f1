#include "store/mmap_layout.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "store/artifact_store.h"
#include "store/serde.h"

namespace wqe::store {

namespace {

// The mapped columns are reinterpret_cast straight from file bytes, which is
// only byte-order-portable on little-endian hosts (the only byte order this
// repo targets; the Writer/Reader codecs of format.h make the same call).
static_assert(std::endian::native == std::endian::little,
              "mmap'd columns are little-endian on disk");

/// Section-payload checksum: four independent multiply-rotate lanes over
/// 8-byte words, folded at the end. Sections are the bulk of a bundle, and
/// full verification streams every one of them on open — FNV-1a's
/// byte-serial dependency chain would cost as much as the heap decode the
/// mmap path exists to beat. The small header/TOC/meta regions stay on
/// Fnv1a. Not cryptographic; detects the corruption classes that matter
/// here (bit flips, truncation-with-resize, swapped blocks).
uint64_t SectionHash(const char* data, size_t size) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ull;
  std::array<uint64_t, 4> lane = {0x243f6a8885a308d3ull, 0x13198a2e03707344ull,
                                  0xa4093822299f31d0ull, 0x082efa98ec4e6c89ull};
  const char* p = data;
  size_t n = size;
  auto mix = [](uint64_t h, uint64_t v) {
    h ^= v * kMul;
    return std::rotl(h, 31) * 0xbf58476d1ce4e5b9ull;
  };
  while (n >= 32) {
    uint64_t v[4];
    std::memcpy(v, p, 32);
    for (int i = 0; i < 4; ++i) lane[i] = mix(lane[i], v[i]);
    p += 32;
    n -= 32;
  }
  uint64_t tail[4] = {0, 0, 0, 0};
  std::memcpy(tail, p, n);
  for (int i = 0; i < 4; ++i) lane[i] = mix(lane[i], tail[i] ^ (n + 1));
  uint64_t h = size * kMul;
  for (int i = 0; i < 4; ++i) h = mix(h, lane[i]);
  return h;
}

enum class SectionId : uint32_t {
  kLabels = 1,
  kNameOffsets = 2,
  kNameBytes = 3,
  kAttrOffsets = 4,
  kAttrCells = 5,
  kOutOffsets = 6,
  kAdjOut = 7,
  kInOffsets = 8,
  kAdjIn = 9,
  kLabelOffsets = 10,
  kLabelNodes = 11,
  kEdgeFrom = 12,
  kEdgeTo = 13,
  kEdgeLabels = 14,
  kDistOrder = 15,
  kDistOutOffsets = 16,
  kDistOutCells = 17,
  kDistInOffsets = 18,
  kDistInCells = 19,
};
inline constexpr uint32_t kMaxSectionId = 19;

size_t ElemSize(SectionId id) {
  switch (id) {
    case SectionId::kNameBytes:
      return 1;
    case SectionId::kLabels:
    case SectionId::kAdjOut:
    case SectionId::kAdjIn:
    case SectionId::kLabelNodes:
    case SectionId::kEdgeFrom:
    case SectionId::kEdgeTo:
    case SectionId::kEdgeLabels:
    case SectionId::kDistOrder:
      return 4;
    case SectionId::kNameOffsets:
    case SectionId::kAttrOffsets:
    case SectionId::kOutOffsets:
    case SectionId::kInOffsets:
    case SectionId::kLabelOffsets:
    case SectionId::kDistOutOffsets:
    case SectionId::kDistInOffsets:
      return 8;
    case SectionId::kDistOutCells:
    case SectionId::kDistInCells:
      return sizeof(DistanceIndex::LabelEntry);  // 8
    case SectionId::kAttrCells:
      return sizeof(AttrPair);  // 24
  }
  return 0;
}

/// The payload columns partitioned by node range; everything else (offset
/// tables, fixed-width per-node columns, the edge list) is one global
/// section every shard shares.
bool IsSharded(SectionId id) {
  switch (id) {
    case SectionId::kNameBytes:
    case SectionId::kAttrCells:
    case SectionId::kAdjOut:
    case SectionId::kAdjIn:
    case SectionId::kDistOutCells:
    case SectionId::kDistInCells:
      return true;
    default:
      return false;
  }
}

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("bundle " + what);
}

uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) / a * a; }

// -------- Writer side --------

struct PendingShard {
  SectionId id;
  uint32_t shard;
  const char* data;
  uint64_t bytes;
  uint64_t count;
  uint64_t offset = 0;  // assigned by the layout pass
};

template <typename T>
const char* BytesOf(std::span<const T> s) {
  return reinterpret_cast<const char*>(s.data());
}

}  // namespace

// -------- MmapFile --------

Status MmapFile::Open(const std::string& path, std::shared_ptr<MmapFile>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no bundle at " + path);
    return Status::InvalidArgument("cannot open bundle " + path + ": " +
                                   std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status s = Status::InvalidArgument("cannot stat bundle " + path);
    ::close(fd);
    return s;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::OutOfRange("bundle file is empty: " + path);
  }
  // Read-only shared mapping: every process serving this bundle reads the
  // same physical page-cache copy. The fd can be closed once mapped.
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) {
    return Status::InvalidArgument("mmap failed for " + path + ": " +
                                   std::strerror(errno));
  }
  out->reset(new MmapFile(addr, size));
  return Status::OK();
}

MmapFile::~MmapFile() { ::munmap(addr_, size_); }

// -------- WriteBundle --------

Status WriteBundle(const std::string& path, const Graph& g,
                   const ActiveDomains& adom, uint32_t diameter,
                   const DistanceIndex& dist, uint64_t key, uint64_t params,
                   const BundleWriteOptions& opts) {
  if (!g.finalized()) {
    return Status::InvalidArgument("cannot bundle an unfinalized graph");
  }
  const GraphView& gv = g.view();
  const DistanceIndex::View& dv = dist.view();
  const uint64_t n = gv.num_nodes();
  const uint64_t m = gv.num_edges();

  size_t num_shards = opts.num_shards;
  if (num_shards == 0) {
    num_shards = std::clamp<size_t>((n + 65535) / 65536, 1, 64);
  }
  const uint64_t per_shard = n == 0 ? 1 : (n + num_shards - 1) / num_shards;

  std::vector<PendingShard> shards;
  auto add_global = [&](SectionId id, const char* data, uint64_t count) {
    shards.push_back({id, 0, data, count * ElemSize(id), count});
  };
  // Splits a payload column at the node-partition boundaries given by its
  // offsets array (offsets[v] = first element of node v's slice).
  auto add_sharded = [&](SectionId id, std::span<const uint64_t> offsets,
                         const char* data) {
    const size_t elem = ElemSize(id);
    for (size_t s = 0; s < num_shards; ++s) {
      const uint64_t lo_node = std::min<uint64_t>(n, s * per_shard);
      const uint64_t hi_node = std::min<uint64_t>(n, (s + 1) * per_shard);
      const uint64_t lo = offsets.empty() ? 0 : offsets[lo_node];
      const uint64_t hi = offsets.empty() ? 0 : offsets[hi_node];
      shards.push_back({id, static_cast<uint32_t>(s), data + lo * elem,
                        (hi - lo) * elem, hi - lo});
    }
  };

  add_global(SectionId::kLabels, BytesOf(gv.labels), gv.labels.size());
  add_global(SectionId::kNameOffsets, BytesOf(gv.name_offsets),
             gv.name_offsets.size());
  add_sharded(SectionId::kNameBytes, gv.name_offsets, gv.name_bytes.data());
  add_global(SectionId::kAttrOffsets, BytesOf(gv.attr_offsets),
             gv.attr_offsets.size());
  add_sharded(SectionId::kAttrCells, gv.attr_offsets, BytesOf(gv.attr_cells));
  add_global(SectionId::kOutOffsets, BytesOf(gv.out_offsets),
             gv.out_offsets.size());
  add_sharded(SectionId::kAdjOut, gv.out_offsets, BytesOf(gv.adj_out));
  add_global(SectionId::kInOffsets, BytesOf(gv.in_offsets),
             gv.in_offsets.size());
  add_sharded(SectionId::kAdjIn, gv.in_offsets, BytesOf(gv.adj_in));
  add_global(SectionId::kLabelOffsets, BytesOf(gv.label_offsets),
             gv.label_offsets.size());
  add_global(SectionId::kLabelNodes, BytesOf(gv.label_nodes),
             gv.label_nodes.size());
  add_global(SectionId::kEdgeFrom, BytesOf(gv.edge_from), gv.edge_from.size());
  add_global(SectionId::kEdgeTo, BytesOf(gv.edge_to), gv.edge_to.size());
  add_global(SectionId::kEdgeLabels, BytesOf(gv.edge_labels),
             gv.edge_labels.size());
  add_global(SectionId::kDistOrder, BytesOf(dv.order), dv.order.size());
  add_global(SectionId::kDistOutOffsets, BytesOf(dv.out_offsets),
             dv.out_offsets.size());
  add_sharded(SectionId::kDistOutCells,
              dist.indexed() ? dv.out_offsets : std::span<const uint64_t>(),
              BytesOf(dv.out_cells));
  add_global(SectionId::kDistInOffsets, BytesOf(dv.in_offsets),
             dv.in_offsets.size());
  add_sharded(SectionId::kDistInCells,
              dist.indexed() ? dv.in_offsets : std::span<const uint64_t>(),
              BytesOf(dv.in_cells));

  // Meta block: the small artifacts every process heap-decodes at open.
  Writer meta;
  Serde::EncodeSchema(g.schema(), meta);
  meta.Str(Serde::EncodeAdom(adom));
  meta.U32(diameter);
  meta.U8(dist.indexed() ? 1 : 0);
  const std::string& meta_bytes = meta.bytes();

  // Layout pass: sections follow header + TOC + meta; each section start
  // (shard 0) is kSectionAlign-aligned, subsequent shards back-to-back so
  // the global span stays contiguous.
  const uint64_t toc_bytes = shards.size() * kTocEntryBytes;
  uint64_t cursor = kBundleHeaderBytes + toc_bytes + meta_bytes.size();
  for (PendingShard& ps : shards) {
    if (ps.shard == 0) cursor = AlignUp(cursor, kSectionAlign);
    ps.offset = cursor;
    cursor += ps.bytes;
  }
  const uint64_t file_bytes = cursor;

  Writer toc;
  for (const PendingShard& ps : shards) {
    toc.U32(static_cast<uint32_t>(ps.id));
    toc.U32(ps.shard);
    toc.U64(ps.offset);
    toc.U64(ps.bytes);
    toc.U64(ps.count);
    toc.U64(SectionHash(ps.data, static_cast<size_t>(ps.bytes)));
  }
  assert(toc.bytes().size() == toc_bytes);

  Writer header;
  header.U32(kMagic);
  header.U32(kFormatVersion);
  header.U32(static_cast<uint32_t>(ArtifactKind::kMmapBundle));
  header.U32(0);  // flags
  header.U32(static_cast<uint32_t>(num_shards));
  header.U32(static_cast<uint32_t>(shards.size()));
  header.U64(key);
  header.U64(params);
  header.U64(Serde::GraphFingerprint(g));
  header.U64(n);
  header.U64(m);
  header.U64(toc_bytes);
  header.U64(meta_bytes.size());
  header.U64(Fnv1a(meta_bytes, Fnv1a(toc.bytes())));
  assert(header.bytes().size() == kBundleHeaderBytes);

  std::string file;
  file.reserve(file_bytes);
  file.append(header.bytes());
  file.append(toc.bytes());
  file.append(meta_bytes);
  for (const PendingShard& ps : shards) {
    file.resize(ps.offset, '\0');  // alignment padding (zeroed)
    file.append(ps.data, static_cast<size_t>(ps.bytes));
  }
  assert(file.size() == file_bytes);
  return WriteFileAtomic(path, file);
}

// -------- MappedBundle --------

ActiveDomains MappedBundle::TakeAdom() {
  ActiveDomains a = std::move(*adom_);
  adom_.reset();
  return a;
}

DistanceIndex MappedBundle::TakeDist() {
  DistanceIndex d = std::move(*dist_);
  dist_.reset();
  return d;
}

Status MappedBundle::Open(const std::string& path, uint64_t key,
                          uint64_t params, const BundleOpenOptions& opts,
                          std::unique_ptr<MappedBundle>* out) {
  std::shared_ptr<MmapFile> map;
  if (Status s = MmapFile::Open(path, &map); !s.ok()) return s;
  const std::string_view bytes = map->bytes();
  if (bytes.size() < kBundleHeaderBytes) {
    return Status::OutOfRange("bundle file shorter than its header");
  }

  // Header, field-by-field (mirrors WriteBundle).
  uint32_t magic = 0, version = 0, kind = 0, flags = 0;
  uint32_t num_shards = 0, num_sections = 0;
  uint64_t h_key = 0, h_params = 0, serde_fp = 0, n = 0, m = 0;
  uint64_t toc_bytes = 0, meta_size = 0, toc_check = 0;
  {
    Reader r(bytes.substr(0, kBundleHeaderBytes));
    if (Status s = r.U32(&magic); !s.ok()) return s;
    if (Status s = r.U32(&version); !s.ok()) return s;
    if (Status s = r.U32(&kind); !s.ok()) return s;
    if (Status s = r.U32(&flags); !s.ok()) return s;
    if (Status s = r.U32(&num_shards); !s.ok()) return s;
    if (Status s = r.U32(&num_sections); !s.ok()) return s;
    if (Status s = r.U64(&h_key); !s.ok()) return s;
    if (Status s = r.U64(&h_params); !s.ok()) return s;
    if (Status s = r.U64(&serde_fp); !s.ok()) return s;
    if (Status s = r.U64(&n); !s.ok()) return s;
    if (Status s = r.U64(&m); !s.ok()) return s;
    if (Status s = r.U64(&toc_bytes); !s.ok()) return s;
    if (Status s = r.U64(&meta_size); !s.ok()) return s;
    if (Status s = r.U64(&toc_check); !s.ok()) return s;
  }
  if (magic != kMagic) return Malformed("magic mismatch (not a wqe snapshot)");
  if (version != kFormatVersion) {
    return Status::InvalidArgument(
        "bundle format version " + std::to_string(version) + " != expected " +
        std::to_string(kFormatVersion));
  }
  if (kind != static_cast<uint32_t>(ArtifactKind::kMmapBundle)) {
    return Malformed("kind mismatch");
  }
  if (h_key != key) {
    return Malformed("graph fingerprint mismatch (graph changed; stale bundle)");
  }
  if (h_params != params) {
    return Malformed("builder-parameter hash mismatch (stale bundle)");
  }
  if (num_shards == 0 || num_sections == 0) return Malformed("empty layout");
  if (toc_bytes != static_cast<uint64_t>(num_sections) * kTocEntryBytes) {
    return Malformed("TOC size mismatch");
  }
  // Compared by subtraction: a hostile meta_size must not wrap the sum.
  const uint64_t room = bytes.size() - kBundleHeaderBytes;
  if (toc_bytes > room || meta_size > room - toc_bytes) {
    return Status::OutOfRange("bundle TOC/meta past end of file (truncated)");
  }
  const std::string_view toc_region = bytes.substr(kBundleHeaderBytes, toc_bytes);
  const std::string_view meta_region =
      bytes.substr(kBundleHeaderBytes + toc_bytes, meta_size);
  if (Fnv1a(meta_region, Fnv1a(toc_region)) != toc_check) {
    return Malformed("TOC checksum mismatch (corrupted file)");
  }

  // TOC: entries for one section must be contiguous ascending shards laid
  // back-to-back in the file (the global span the readers use); every
  // section id must appear exactly once.
  struct SectionBytes {
    const char* data = nullptr;
    uint64_t bytes = 0;
    uint64_t count = 0;
    bool present = false;
  };
  std::array<SectionBytes, kMaxSectionId + 1> sections;
  {
    Reader r(toc_region);
    uint32_t prev_id = 0, prev_shard = 0;
    uint64_t prev_end = 0;
    for (uint32_t i = 0; i < num_sections; ++i) {
      uint32_t id = 0, shard = 0;
      uint64_t offset = 0, length = 0, count = 0, check = 0;
      if (Status s = r.U32(&id); !s.ok()) return s;
      if (Status s = r.U32(&shard); !s.ok()) return s;
      if (Status s = r.U64(&offset); !s.ok()) return s;
      if (Status s = r.U64(&length); !s.ok()) return s;
      if (Status s = r.U64(&count); !s.ok()) return s;
      if (Status s = r.U64(&check); !s.ok()) return s;
      if (id == 0 || id > kMaxSectionId) return Malformed("unknown section id");
      const SectionId sid = static_cast<SectionId>(id);
      if (offset > bytes.size() || length > bytes.size() - offset) {
        return Status::OutOfRange(
            "bundle section past end of file (truncated or short mmap)");
      }
      if (count * ElemSize(sid) != length) {
        return Malformed("section length/count mismatch");
      }
      SectionBytes& sec = sections[id];
      if (shard == 0) {
        if (sec.present) return Malformed("duplicate section");
        if (id == prev_id) return Malformed("section shard order");
        if (offset % kSectionAlign != 0) return Malformed("misaligned section");
        sec.present = true;
        sec.data = bytes.data() + offset;
      } else {
        // Continuation shard: same id as the previous entry, next shard
        // index, starting exactly where the previous shard ended.
        if (id != prev_id || shard != prev_shard + 1 || shard >= num_shards) {
          return Malformed("section shard order");
        }
        if (offset != prev_end) return Malformed("non-contiguous shards");
      }
      if (opts.verify == BundleVerify::kFull &&
          SectionHash(bytes.data() + offset, static_cast<size_t>(length)) !=
              check) {
        return Malformed("section checksum mismatch (corrupted file)");
      }
      sec.bytes += length;
      sec.count += count;
      prev_id = id;
      prev_shard = shard;
      prev_end = offset + length;
    }
  }
  auto section = [&](SectionId id) -> const SectionBytes& {
    return sections[static_cast<uint32_t>(id)];
  };
  for (uint32_t id = 1; id <= kMaxSectionId; ++id) {
    if (!sections[id].present) return Malformed("missing section");
    if (IsSharded(static_cast<SectionId>(id))) continue;
    // Global sections must be single-shard (their count already accumulated
    // once); sharded sections accumulated num_shards entries above.
  }
  auto span_u64 = [&](SectionId id) {
    const SectionBytes& s = section(id);
    return std::span<const uint64_t>(reinterpret_cast<const uint64_t*>(s.data),
                                     static_cast<size_t>(s.count));
  };
  auto span_u32 = [&](SectionId id) {
    return std::span<const NodeId>(
        reinterpret_cast<const NodeId*>(section(id).data),
        static_cast<size_t>(section(id).count));
  };

  // Geometry: counts must agree with the header's n/m and each offsets array
  // must be a prefix sum over exactly its payload column.
  auto check_count = [&](SectionId id, uint64_t want, const char* what) {
    return section(id).count == want ? Status::OK()
                                     : Malformed(std::string(what) + " count");
  };
  if (Status s = check_count(SectionId::kLabels, n, "label"); !s.ok()) return s;
  if (Status s = check_count(SectionId::kNameOffsets, n + 1, "name offset");
      !s.ok()) {
    return s;
  }
  if (Status s = check_count(SectionId::kAttrOffsets, n + 1, "attr offset");
      !s.ok()) {
    return s;
  }
  if (Status s = check_count(SectionId::kOutOffsets, n + 1, "out offset");
      !s.ok()) {
    return s;
  }
  if (Status s = check_count(SectionId::kInOffsets, n + 1, "in offset");
      !s.ok()) {
    return s;
  }
  if (Status s = check_count(SectionId::kAdjOut, m, "out adjacency"); !s.ok()) {
    return s;
  }
  if (Status s = check_count(SectionId::kAdjIn, m, "in adjacency"); !s.ok()) {
    return s;
  }
  if (Status s = check_count(SectionId::kLabelNodes, n, "label bucket");
      !s.ok()) {
    return s;
  }
  for (SectionId id : {SectionId::kEdgeFrom, SectionId::kEdgeTo,
                       SectionId::kEdgeLabels}) {
    if (Status s = check_count(id, m, "edge column"); !s.ok()) return s;
  }
  auto check_prefix_sum = [&](SectionId offsets_id, SectionId cells_id,
                              const char* what) -> Status {
    const std::span<const uint64_t> offsets = span_u64(offsets_id);
    if (offsets.empty()) return Malformed(std::string(what) + " offsets");
    if (offsets.front() != 0 || offsets.back() != section(cells_id).count) {
      return Malformed(std::string(what) + " offset bounds");
    }
    if (opts.verify == BundleVerify::kFull) {
      for (size_t i = 1; i < offsets.size(); ++i) {
        if (offsets[i - 1] > offsets[i]) {
          return Malformed(std::string(what) + " offsets not monotone");
        }
      }
    }
    return Status::OK();
  };
  if (Status s = check_prefix_sum(SectionId::kNameOffsets,
                                  SectionId::kNameBytes, "name");
      !s.ok()) {
    return s;
  }
  if (Status s = check_prefix_sum(SectionId::kAttrOffsets,
                                  SectionId::kAttrCells, "attr");
      !s.ok()) {
    return s;
  }
  if (Status s = check_prefix_sum(SectionId::kOutOffsets, SectionId::kAdjOut,
                                  "out adjacency");
      !s.ok()) {
    return s;
  }
  if (Status s = check_prefix_sum(SectionId::kInOffsets, SectionId::kAdjIn,
                                  "in adjacency");
      !s.ok()) {
    return s;
  }

  // Meta block: schema, adom, diameter, index flag.
  std::unique_ptr<MappedBundle> bundle(new MappedBundle());
  bundle->map_ = map;
  Schema schema;
  std::string adom_payload;
  uint8_t indexed = 0;
  {
    Reader r(meta_region);
    if (Status s = Serde::DecodeSchema(r, &schema); !s.ok()) return s;
    if (Status s = r.Str(&adom_payload); !s.ok()) return s;
    if (Status s = r.U32(&bundle->diameter_); !s.ok()) return s;
    if (Status s = r.U8(&indexed); !s.ok()) return s;
    if (indexed > 1) return Malformed("distance-index flag");
    if (!r.AtEnd()) return Malformed("trailing bytes after meta");
  }
  if (section(SectionId::kLabelOffsets).count !=
      static_cast<uint64_t>(schema.num_labels()) + 1) {
    return Malformed("label offset count");
  }

  GraphView gv;
  gv.labels = span_u32(SectionId::kLabels);
  gv.name_offsets = span_u64(SectionId::kNameOffsets);
  gv.name_bytes = {section(SectionId::kNameBytes).data,
                   static_cast<size_t>(section(SectionId::kNameBytes).count)};
  gv.attr_offsets = span_u64(SectionId::kAttrOffsets);
  gv.attr_cells = {
      reinterpret_cast<const AttrPair*>(section(SectionId::kAttrCells).data),
      static_cast<size_t>(section(SectionId::kAttrCells).count)};
  gv.out_offsets = span_u64(SectionId::kOutOffsets);
  gv.adj_out = span_u32(SectionId::kAdjOut);
  gv.in_offsets = span_u64(SectionId::kInOffsets);
  gv.adj_in = span_u32(SectionId::kAdjIn);
  gv.label_offsets = span_u64(SectionId::kLabelOffsets);
  gv.label_nodes = span_u32(SectionId::kLabelNodes);
  gv.edge_from = span_u32(SectionId::kEdgeFrom);
  gv.edge_to = span_u32(SectionId::kEdgeTo);
  gv.edge_labels = span_u32(SectionId::kEdgeLabels);
  if (Status s = check_prefix_sum(SectionId::kLabelOffsets,
                                  SectionId::kLabelNodes, "label bucket");
      !s.ok()) {
    return s;
  }
  bundle->graph_ = Graph::Attach(gv, std::move(schema), map, serde_fp);

  std::unique_ptr<ActiveDomains> adom;
  if (Status s = Serde::DecodeAdom(adom_payload, bundle->graph_, &adom);
      !s.ok()) {
    return s;
  }
  bundle->adom_.emplace(std::move(*adom));
  if (bundle->diameter_ == 0) return Malformed("diameter must be positive");

  DistanceIndex::View dv;
  if (indexed == 1) {
    if (Status s = check_count(SectionId::kDistOrder, n, "distance order");
        !s.ok()) {
      return s;
    }
    if (Status s = check_prefix_sum(SectionId::kDistOutOffsets,
                                    SectionId::kDistOutCells, "distance out");
        !s.ok()) {
      return s;
    }
    if (Status s = check_prefix_sum(SectionId::kDistInOffsets,
                                    SectionId::kDistInCells, "distance in");
        !s.ok()) {
      return s;
    }
    if (section(SectionId::kDistOutOffsets).count != n + 1 ||
        section(SectionId::kDistInOffsets).count != n + 1) {
      return Malformed("distance offset count");
    }
    dv.order = span_u32(SectionId::kDistOrder);
    dv.out_offsets = span_u64(SectionId::kDistOutOffsets);
    dv.out_cells = {reinterpret_cast<const DistanceIndex::LabelEntry*>(
                        section(SectionId::kDistOutCells).data),
                    static_cast<size_t>(section(SectionId::kDistOutCells).count)};
    dv.in_offsets = span_u64(SectionId::kDistInOffsets);
    dv.in_cells = {reinterpret_cast<const DistanceIndex::LabelEntry*>(
                       section(SectionId::kDistInCells).data),
                   static_cast<size_t>(section(SectionId::kDistInCells).count)};
  } else {
    for (SectionId id : {SectionId::kDistOrder, SectionId::kDistOutOffsets,
                         SectionId::kDistOutCells, SectionId::kDistInOffsets,
                         SectionId::kDistInCells}) {
      if (section(id).count != 0) {
        return Malformed("distance fallback must carry no labels");
      }
    }
  }
  bundle->dist_.emplace(
      DistanceIndex::Attach(bundle->graph_, dv, indexed == 1, map));

  *out = std::move(bundle);
  return Status::OK();
}

}  // namespace wqe::store
