#ifndef WQE_GRAPH_DISTANCE_INDEX_H_
#define WQE_GRAPH_DISTANCE_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/bfs.h"
#include "graph/graph.h"

namespace wqe {

/// Exact directed shortest-path distance oracle. Implements the "fast
/// distance index [2]" all the paper's algorithms consult: pruned landmark
/// labeling (Akiba, Iwata, Yoshida, SIGMOD 2013) extended to directed graphs
/// with separate in/out label sets. Falls back to bounded bidirectional BFS
/// for graphs above a configurable size (or when disabled, which the
/// `abl_distance_index` bench uses to measure the index's contribution).
///
/// The labeling is stored flat (per-node offsets + one cell column per
/// direction) behind a read-only View, so it can either live on the heap
/// (built) or point straight into an mmap'd store-v2 bundle.
class DistanceIndex {
 public:
  struct Options {
    /// Build the landmark labeling; if false every query runs a bounded BFS.
    bool use_pll = true;
    /// Above this node count, skip the labeling and use BFS regardless.
    size_t pll_max_nodes = 400000;
    /// Workers for the labeling construction (0 = hardware concurrency,
    /// 1 = serial). Hub BFSs run in rank batches against the frozen label
    /// prefix, then merge in rank order with the pruning test re-applied, so
    /// the resulting labeling is byte-identical to the serial build.
    size_t num_threads = 1;
  };

  /// One (hub rank, distance) labeling entry; the on-disk cell of the flat
  /// label columns, so the 8-byte padding-free layout is pinned.
  struct LabelEntry {
    uint32_t hub_rank;
    uint32_t dist;
  };

  /// Read-only columnar view of the labeling. `out_offsets`/`in_offsets`
  /// have length n+1 and index the cell columns; cells within a node's slice
  /// are sorted by hub rank (merge-scan queries depend on it).
  struct View {
    std::span<const NodeId> order;
    std::span<const uint64_t> out_offsets;
    std::span<const LabelEntry> out_cells;
    std::span<const uint64_t> in_offsets;
    std::span<const LabelEntry> in_cells;
  };

  explicit DistanceIndex(const Graph& g) : DistanceIndex(g, Options()) {}
  DistanceIndex(const Graph& g, Options opts);

  /// Builds an index whose view points into externally owned storage (an
  /// mmap'd store-v2 bundle). `backing` is held for the index's lifetime.
  /// `indexed` false means the bundle recorded the BFS fallback (the graph
  /// exceeded pll_max_nodes at build time); the view must then be empty.
  static DistanceIndex Attach(const Graph& g, View view, bool indexed,
                              std::shared_ptr<const void> backing);

  /// Directed distance from u to v, or kInfDist if it exceeds `cap`.
  uint32_t Distance(NodeId u, NodeId v, uint32_t cap);

  /// Thread-safe variant: reads only the frozen labels and runs any BFS
  /// fallback in the caller-owned `scratch`. Concurrent callers over the
  /// same index are safe as long as each brings its own BoundedBfs.
  uint32_t Distance(NodeId u, NodeId v, uint32_t cap, BoundedBfs& scratch) const;

  /// True when the landmark labeling is active (vs BFS fallback).
  bool indexed() const { return indexed_; }

  /// The flat labeling every query reads through.
  const View& view() const { return view_; }

  /// Total number of (hub, dist) label entries (index-size diagnostics).
  size_t LabelEntries() const {
    return view_.out_cells.size() + view_.in_cells.size();
  }

 private:
  /// Empty shell Attach fills with a mapped labeling.
  struct RestoreTag {};
  DistanceIndex(const Graph& g, RestoreTag) : g_(g), bfs_(g) {}

  void Build(size_t num_threads);
  /// Points view_ at the heap vectors (build path).
  void InstallHeapView();
  uint32_t QueryLabels(NodeId u, NodeId v) const;

  const Graph& g_;
  bool indexed_ = false;
  BoundedBfs bfs_;

  // Heap backing (built); empty when attached to a bundle.
  // order_: rank -> node in degree-descending order. out cells of v: hubs
  // reachable from v (v → hub); in cells of v: hubs that reach v (hub → v).
  std::vector<NodeId> order_;
  std::vector<uint64_t> label_out_offsets_;
  std::vector<LabelEntry> label_out_cells_;
  std::vector<uint64_t> label_in_offsets_;
  std::vector<LabelEntry> label_in_cells_;

  View view_;
  std::shared_ptr<const void> backing_;  // keeps an mmap'd bundle alive
};

static_assert(sizeof(DistanceIndex::LabelEntry) == 8,
              "LabelEntry is the on-disk label cell");
static_assert(std::is_trivially_copyable_v<DistanceIndex::LabelEntry>,
              "label columns are written/mapped as raw bytes");

}  // namespace wqe

#endif  // WQE_GRAPH_DISTANCE_INDEX_H_
