#ifndef WQE_TESTS_INDEX_PINS_H_
#define WQE_TESTS_INDEX_PINS_H_

// Pins for "the same distance index": a heap-built index and one restored
// from the mmap bundle must carry the identical labeling, column for column,
// and answer every node pair alike.

#include <gtest/gtest.h>

#include <string>

#include "graph/distance_index.h"
#include "store/format.h"

namespace wqe {

/// Canonical bytes of an index's labeling, read through its public view:
/// the indexed flag, then the order, offset and cell columns.
inline std::string LabelingBytes(const DistanceIndex& d) {
  const DistanceIndex::View& view = d.view();
  store::Writer w;
  w.U8(d.indexed() ? 1 : 0);
  w.PodVec(view.order);
  w.PodVec(view.out_offsets);
  w.PodVec(view.out_cells);
  w.PodVec(view.in_offsets);
  w.PodVec(view.in_cells);
  return w.Take();
}

/// Byte-identical labelings and equal Distance(u, v) over all node pairs
/// (cap = num_nodes, so every reachable pair reports its true distance).
inline void ExpectSameDistanceIndex(DistanceIndex& a, DistanceIndex& b,
                                    size_t num_nodes) {
  EXPECT_EQ(LabelingBytes(a), LabelingBytes(b));
  const uint32_t cap = static_cast<uint32_t>(num_nodes);
  for (NodeId u = 0; u < num_nodes; ++u) {
    for (NodeId v = 0; v < num_nodes; ++v) {
      ASSERT_EQ(a.Distance(u, v, cap), b.Distance(u, v, cap))
          << "u=" << u << " v=" << v;
    }
  }
}

}  // namespace wqe

#endif  // WQE_TESTS_INDEX_PINS_H_
