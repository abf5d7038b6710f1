#ifndef WQE_GRAPH_GRAPH_VIEW_H_
#define WQE_GRAPH_GRAPH_VIEW_H_

#include <cstdint>
#include <span>
#include <type_traits>

#include "common/interner.h"
#include "graph/schema.h"
#include "graph/value.h"

namespace wqe {

/// Dense node identifier.
using NodeId = uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// One attribute-value pair of a node tuple f_A(v). Tuples are stored sorted
/// by attribute id so lookups are binary searches. The explicit `pad` member
/// (always zero) makes the 24-byte layout padding-free, so flat AttrPair
/// columns can be checksummed and mmap'd as raw bytes (store v2).
struct AttrPair {
  AttrPair() = default;
  AttrPair(AttrId a, Value v) : attr(a), value(v) {}
  AttrId attr = 0;
  uint32_t pad = 0;
  Value value;
};

static_assert(sizeof(AttrPair) == 24, "AttrPair is the on-disk attr cell");
static_assert(std::is_trivially_copyable_v<AttrPair>,
              "attr columns are written/mapped as raw bytes");

/// Read-only columnar view of a finalized graph: every array either points
/// into the owning Graph's heap vectors (writer path) or straight into an
/// mmap'd store-v2 bundle (zero-copy path). The matcher/engine layers only
/// ever read through Graph's accessors, which in turn read through this
/// struct, so heap and mmap graphs are interchangeable.
///
/// Layout invariants (shared with store/mmap_layout):
///  - all `_offsets` arrays have length n+1 (prefix sums, element counts in
///    the units of the array they index);
///  - `name_offsets` indexes bytes of `name_bytes`; node v's display name is
///    name_bytes[name_offsets[v] .. name_offsets[v+1]);
///  - `label_offsets` has length num_labels+1 and indexes `label_nodes`
///    (nodes grouped by label, ascending NodeId within a bucket);
///  - `edge_from/edge_to/edge_labels` preserve insertion order (the text
///    format and the canonical encoding behind GraphFingerprint both depend
///    on it).
struct GraphView {
  std::span<const LabelId> labels;

  std::span<const uint64_t> name_offsets;
  std::span<const char> name_bytes;

  std::span<const uint64_t> attr_offsets;
  std::span<const AttrPair> attr_cells;

  std::span<const uint64_t> out_offsets;
  std::span<const NodeId> adj_out;
  std::span<const uint64_t> in_offsets;
  std::span<const NodeId> adj_in;

  std::span<const uint64_t> label_offsets;
  std::span<const NodeId> label_nodes;

  std::span<const NodeId> edge_from;
  std::span<const NodeId> edge_to;
  std::span<const LabelId> edge_labels;

  size_t num_nodes() const { return labels.size(); }
  size_t num_edges() const { return adj_out.size(); }
};

}  // namespace wqe

#endif  // WQE_GRAPH_GRAPH_VIEW_H_
