#ifndef WQE_QUERY_QUERY_H_
#define WQE_QUERY_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/schema.h"
#include "query/literal.h"

namespace wqe {

/// Index of a node inside a pattern query (not a graph NodeId).
using QNodeId = uint32_t;

inline constexpr QNodeId kNoQNode = static_cast<QNodeId>(-1);

/// Query shape classes reported by the topology experiment (Fig 10(h)).
enum class QueryShape { kStar, kChain, kTree, kCyclic };

const char* QueryShapeName(QueryShape s);

/// One pattern node: a label (kWildcardSymbol = '⊥' matches anything) and a
/// predicate F_Q(u), a set of constant literals.
struct QueryNode {
  LabelId label = kWildcardSymbol;
  std::vector<Literal> literals;
};

/// One pattern edge with its edge bound L_Q(e) <= b_m: it is matched by any
/// directed path of length <= bound (P-homomorphism, §2.1). bound == 1 is
/// ordinary subgraph-isomorphism edge semantics.
struct QueryEdge {
  QNodeId from = 0;
  QNodeId to = 0;
  uint32_t bound = 1;
};

/// Graph pattern query Q = (V_Q, E_Q, L_Q, F_Q, u_o) (§2.1).
///
/// Rewriting stability: node indices stay valid across atomic-operator
/// application. RmE never deletes nodes; instead, nodes disconnected from the
/// focus become *inactive* and stop constraining matches (this is how the
/// Fig 1 walk-through drops the Sensor requirement when RmE removes the
/// (Cellphone, Sensor) edge). ActiveNodes() / IsActive() expose the live set.
class PatternQuery {
 public:
  PatternQuery() = default;

  // -------- Construction --------

  QNodeId AddNode(LabelId label);
  QNodeId AddNode(const QueryNode& node);

  /// Adds edge (from, to) with the given bound. At most one edge per ordered
  /// pair; returns false (and adds nothing) on duplicates or self-loops.
  bool AddEdge(QNodeId from, QNodeId to, uint32_t bound = 1);

  void SetFocus(QNodeId u) { focus_ = u; }

  void AddLiteral(QNodeId u, const Literal& lit) {
    nodes_[u].literals.push_back(lit);
  }

  // -------- Accessors --------

  QNodeId focus() const { return focus_; }
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_edges() const { return edges_.size(); }

  const QueryNode& node(QNodeId u) const { return nodes_[u]; }
  QueryNode& node(QNodeId u) { return nodes_[u]; }
  const std::vector<QueryEdge>& edges() const { return edges_; }
  QueryEdge& edge(size_t i) { return edges_[i]; }
  const QueryEdge& edge(size_t i) const { return edges_[i]; }

  /// Index of edge (from, to), or -1.
  int FindEdge(QNodeId from, QNodeId to) const;

  /// True if either (u, v) or (v, u) is present.
  bool HasEdgeEitherDirection(QNodeId u, QNodeId v) const {
    return FindEdge(u, v) >= 0 || FindEdge(v, u) >= 0;
  }

  /// Index of the first literal of `u` equal to `lit`, or -1.
  int FindLiteral(QNodeId u, const Literal& lit) const;

  /// Index of the first literal of `u` on attribute `attr` with operator
  /// `op`, or -1.
  int FindLiteral(QNodeId u, AttrId attr, CmpOp op) const;

  void RemoveLiteralAt(QNodeId u, size_t index) {
    auto& lits = nodes_[u].literals;
    lits.erase(lits.begin() + static_cast<ptrdiff_t>(index));
  }

  /// Removes edge index `i`.
  void RemoveEdgeAt(size_t i) {
    edges_.erase(edges_.begin() + static_cast<ptrdiff_t>(i));
  }

  // -------- Structure --------

  /// Nodes reachable from the focus treating pattern edges as undirected.
  /// These are the nodes that actually constrain matching.
  std::vector<QNodeId> ActiveNodes() const;

  /// Membership bitmap version of ActiveNodes().
  std::vector<bool> ActiveMask() const;

  /// Edges whose both endpoints are active.
  std::vector<size_t> ActiveEdges() const;

  /// Total number of active nodes + active edges + literals on active nodes
  /// — the |Q| parameter in the paper's complexity statements.
  size_t Size() const;

  /// Undirected pattern distance between u and u', summing edge bounds along
  /// the cheapest path (used for star-view augmented-edge labels, §2.3).
  /// Returns kNoQueryDist when disconnected.
  uint32_t QueryDistance(QNodeId u, QNodeId v) const;
  static constexpr uint32_t kNoQueryDist = static_cast<uint32_t>(-1);

  /// Shape of the active pattern (star / chain / tree / cyclic).
  QueryShape Shape() const;

  /// Canonical serialization of the active pattern; equal fingerprints mean
  /// equal rewrites (used to dedupe Q-Chase search states). Hot paths take
  /// a QueryKey rendered once instead of calling this per lookup.
  std::string Fingerprint() const;

  std::string ToString(const Schema& schema) const;

 private:
  std::vector<QueryNode> nodes_;
  std::vector<QueryEdge> edges_;
  QNodeId focus_ = 0;
};

/// A rewrite's canonical identity: its Fingerprint() rendered once, plus a
/// fixed-width hash of that text. The chase renders the key when a rewrite
/// is materialized and carries it to every memo keyed by rewrite (the
/// engine's dedup table, the context's match memo, the matcher's plan
/// memos). Equality compares hashes first and the full text whenever they
/// agree, so no lookup can depend on a hash collision.
struct QueryKey {
  std::string text;   // PatternQuery::Fingerprint(), byte for byte
  uint64_t hash = 0;  // std::hash of `text`

  /// Renders `q`'s fingerprint (the only cost of a key) and hashes it.
  static QueryKey Of(const PatternQuery& q);

  friend bool operator==(const QueryKey& a, const QueryKey& b) {
    return a.hash == b.hash && a.text == b.text;
  }

  struct Hash {
    size_t operator()(const QueryKey& k) const {
      return static_cast<size_t>(k.hash);
    }
  };
};

}  // namespace wqe

#endif  // WQE_QUERY_QUERY_H_
