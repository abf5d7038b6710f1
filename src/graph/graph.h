#ifndef WQE_GRAPH_GRAPH_H_
#define WQE_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph_view.h"
#include "graph/schema.h"
#include "graph/value.h"

namespace wqe {

namespace store {
class Serde;
}  // namespace store

/// Directed attributed graph G = (V, E, L, f_A) (§2.1). Built incrementally
/// (AddNode / SetAttr / AddEdge) and then frozen by Finalize(), which packs
/// everything into columnar arrays (CSR adjacency, flat attr cells, a name
/// blob, label buckets) behind a read-only GraphView. All read accessors
/// require a finalized graph; mutation after Finalize() is a programming
/// error and is checked in debug builds.
///
/// A Graph is backed one of two ways, indistinguishable to readers:
///  - heap: Finalize() packs the staged vectors and points the view at them;
///  - attached: Attach() points the view straight into an mmap'd store-v2
///    bundle (zero copy; `backing` keeps the mapping alive).
class Graph {
 public:
  Graph() = default;

  // Graphs own large CSR arrays; copying one is almost always a bug.
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  // -------- Construction --------

  /// Adds a node with the given label and optional display name (e.g. "P1").
  NodeId AddNode(LabelId label, std::string_view name = "");

  /// Sets (or overwrites) attribute `a` of node `v`. Construction-time only.
  void SetAttr(NodeId v, AttrId a, Value value);

  /// Adds a directed edge. `elabel` is a display label; matching semantics
  /// (§2.1) constrain only path lengths, not edge labels.
  void AddEdge(NodeId from, NodeId to, LabelId elabel = kWildcardSymbol);

  /// Freezes the graph: sorts attribute tuples, packs CSR adjacency and the
  /// flat attribute/name/label columns, and installs the view. Idempotent.
  void Finalize();

  /// Builds a Graph whose view points into externally owned columnar storage
  /// (an mmap'd store-v2 bundle). `backing` is held for the Graph's lifetime;
  /// `serde_fingerprint` is the Serde::GraphFingerprint recorded at write
  /// time, returned without re-encoding (the staged edge order needed to
  /// re-encode lives only in the view's edge columns).
  static Graph Attach(GraphView view, Schema schema,
                      std::shared_ptr<const void> backing,
                      uint64_t serde_fingerprint);

  bool finalized() const { return finalized_; }
  bool attached() const { return backing_ != nullptr; }

  /// The columnar view every accessor reads through. Requires finalized().
  const GraphView& view() const { return view_; }

  // -------- Topology --------

  size_t num_nodes() const {
    return finalized_ ? view_.labels.size() : labels_.size();
  }
  size_t num_edges() const {
    return finalized_ ? view_.adj_out.size() : edge_to_.size();
  }

  LabelId label(NodeId v) const {
    return finalized_ ? view_.labels[v] : labels_[v];
  }

  std::string_view name(NodeId v) const {
    if (!finalized_) return names_[v];
    return {view_.name_bytes.data() + view_.name_offsets[v],
            view_.name_offsets[v + 1] - view_.name_offsets[v]};
  }

  /// Out-neighbors of v (CSR slice). Requires finalized().
  std::span<const NodeId> out(NodeId v) const {
    return view_.adj_out.subspan(view_.out_offsets[v],
                                 view_.out_offsets[v + 1] - view_.out_offsets[v]);
  }

  /// In-neighbors of v (CSR slice). Requires finalized().
  std::span<const NodeId> in(NodeId v) const {
    return view_.adj_in.subspan(view_.in_offsets[v],
                                view_.in_offsets[v + 1] - view_.in_offsets[v]);
  }

  size_t out_degree(NodeId v) const {
    return view_.out_offsets[v + 1] - view_.out_offsets[v];
  }
  size_t in_degree(NodeId v) const {
    return view_.in_offsets[v + 1] - view_.in_offsets[v];
  }
  size_t degree(NodeId v) const { return out_degree(v) + in_degree(v); }

  /// All nodes carrying `label`, ascending. Requires finalized().
  std::span<const NodeId> NodesWithLabel(LabelId label) const;

  // -------- Attributes --------

  /// Sorted attribute tuple f_A(v). Requires finalized().
  std::span<const AttrPair> attrs(NodeId v) const {
    return view_.attr_cells.subspan(
        view_.attr_offsets[v], view_.attr_offsets[v + 1] - view_.attr_offsets[v]);
  }

  /// Pointer to the value of attribute `a` on node `v`, or nullptr if the
  /// node does not carry that attribute.
  const Value* attr(NodeId v, AttrId a) const;

  // -------- Schema --------

  Schema& schema() { return schema_; }
  const Schema& schema() const { return schema_; }

  // Convenience wrappers for building graphs in tests and examples.
  NodeId AddNode(std::string_view label, std::string_view name = "") {
    return AddNode(schema_.InternLabel(label), name);
  }
  void SetNum(NodeId v, std::string_view attr, double num) {
    SetAttr(v, schema_.InternAttr(attr), Value::Num(num));
  }
  void SetStr(NodeId v, std::string_view attr, std::string_view s) {
    SetAttr(v, schema_.InternAttr(attr), schema_.InternStr(s));
  }

 private:
  Schema schema_;
  bool finalized_ = false;

  // Staging (pre-finalize). labels_ and the edge arrays double as the heap
  // backing of the view after Finalize(); names_ and attrs_ are packed into
  // the flat columns below and released.
  std::vector<LabelId> labels_;
  std::vector<std::string> names_;
  std::vector<std::vector<AttrPair>> attrs_;
  std::vector<NodeId> edge_from_;
  std::vector<NodeId> edge_to_;
  std::vector<LabelId> edge_labels_;

  // Columnar heap backing (post-finalize, writer path). Empty for attached
  // graphs, whose view points into `backing_` instead.
  std::vector<uint64_t> name_offsets_;
  std::vector<char> name_bytes_;
  std::vector<uint64_t> attr_offsets_;
  std::vector<AttrPair> attr_cells_;
  std::vector<uint64_t> out_offsets_;
  std::vector<NodeId> adj_out_;
  std::vector<uint64_t> in_offsets_;
  std::vector<NodeId> adj_in_;
  std::vector<uint64_t> label_offsets_;
  std::vector<NodeId> label_nodes_;

  GraphView view_;
  std::shared_ptr<const void> backing_;  // keeps an mmap'd bundle alive
  uint64_t attached_fingerprint_ = 0;

  friend class GraphIo;
  friend class store::Serde;  // canonical encoding (GraphFingerprint)
};

}  // namespace wqe

#endif  // WQE_GRAPH_GRAPH_H_
