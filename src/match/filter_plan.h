#ifndef WQE_MATCH_FILTER_PLAN_H_
#define WQE_MATCH_FILTER_PLAN_H_

#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "query/literal.h"
#include "query/query.h"

namespace wqe::match {

/// One compiled predicate: the comparison a single literal of F_Q(u) applies
/// to the cell value of its attribute. `wildcard` encodes "u.A = ⊥" (presence
/// only — the group's attribute lookup is the whole check).
struct CompiledPred {
  CmpOp op = CmpOp::kEq;
  bool wildcard = false;
  Value constant;
};

/// Compiled candidate filter of one query node — the per-node-signature plan
/// IR of the match pipeline (DESIGN.md "Match pipeline"). Compilation groups
/// the node's literals by AttrId and sorts the groups ascending, so a probe
/// is a single merged forward walk of the node's sorted attribute tuple
/// (GraphView::attr_cells) against the groups: k literals cost one walk, not
/// k binary searches. The semantics are exactly IsCandidate's conjunction —
/// label agreement (⊥ matches anything) plus every literal holding — so the
/// interpreted and compiled paths are interchangeable bit for bit.
class FilterPlan {
 public:
  FilterPlan() = default;

  /// Compiles `node`'s label + literal conjunction.
  static FilterPlan Compile(const QueryNode& node);

  /// Canonical fingerprint of a node's filter: "L<label>(<lit>,<lit>,...)"
  /// with the exact literal keys of LiteralKey sorted lexicographically.
  /// This is the single node-signature notion in the system: star
  /// signatures (and hence ViewCache keys) are concatenations of these plan
  /// fingerprints, and the matcher's filtered-ball memo keys on them, so a
  /// hit is exactly "same compiled filter".
  static std::string NodeFingerprint(const QueryNode& node);
  static void AppendNodeFingerprint(const QueryNode& node, std::string& out);

  LabelId label() const { return label_; }
  bool has_predicates() const { return !groups_.empty(); }
  const std::string& fingerprint() const { return fingerprint_; }

  /// Full per-node probe: label stage + predicate stage. Equivalent to
  /// IsCandidate on the same node, evaluated against the columnar view.
  bool Admits(const GraphView& view, NodeId v) const {
    if (label_ != kWildcardSymbol && view.labels[v] != label_) return false;
    return AdmitsAttrs(view, v);
  }

  /// Predicate stage only: one merged walk of v's sorted tuple. Callers must
  /// have applied the label stage already (label-bucket seed).
  bool AdmitsAttrs(const GraphView& view, NodeId v) const;

  /// Batch predicate stage over a label-seeded selection vector: appends the
  /// survivors of `in` to `out` in order (branch-light loop; the seed already
  /// satisfied the label stage).
  void FilterInto(const GraphView& view, std::span<const NodeId> in,
                  std::vector<NodeId>& out) const;

  /// Batch predicate+label stage over the id range [0, view.num_nodes()) —
  /// the ⊥-label seed, which has no bucket to enumerate.
  void FilterAll(const GraphView& view, std::vector<NodeId>& out) const;

 private:
  /// Predicates on one attribute: preds_[first, first + count).
  struct Group {
    AttrId attr = 0;
    uint32_t first = 0;
    uint32_t count = 0;
  };

  LabelId label_ = kWildcardSymbol;
  std::vector<Group> groups_;       // ascending attr
  std::vector<CompiledPred> preds_; // flat, grouped by attr
  std::string fingerprint_;
};

/// The compiled filters of every node of one pattern query, compiled once
/// per query fingerprint and shared through Matcher::SharedPlans alongside
/// the assignment plan.
class QueryFilterPlans {
 public:
  QueryFilterPlans() = default;

  static QueryFilterPlans Compile(const PatternQuery& q);

  const FilterPlan& at(QNodeId u) const { return plans_[u]; }
  size_t size() const { return plans_.size(); }

 private:
  std::vector<FilterPlan> plans_;
};

/// Single-literal probe against one node — the sanctioned door for the chase
/// layer's diagnosis passes (operator generation inspects individual failing
/// literals, not whole candidate filters). Keeps per-node attribute probing
/// inside src/match, which a check.sh lint stage enforces.
bool LiteralHolds(const Graph& g, NodeId v, const Literal& lit);

/// Candidate set of the compiled filter `f` against the whole graph: seeds
/// from the label bucket (or the full id range for ⊥), runs the predicate
/// stage, and returns the sorted survivors. `seeded`, when non-null, is
/// incremented by the seed-stage size (the match.stage.seeded funnel).
std::vector<NodeId> ComputeCandidatesCompiled(const Graph& g,
                                              const FilterPlan& f,
                                              uint64_t* seeded = nullptr);

}  // namespace wqe::match

#endif  // WQE_MATCH_FILTER_PLAN_H_
