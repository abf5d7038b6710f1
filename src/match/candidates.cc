#include "match/candidates.h"

#include <algorithm>


namespace wqe {

// The interpreted reference probe: one attribute lookup per literal. This is
// deliberately NOT the merged-walk kernel — FilterPlan::AdmitsAttrs owns that
// (k literals = one tuple pass); keeping this path naive makes it an honest
// control arm for abl_match_pipeline and an independent oracle for the
// FilterPlan equivalence tests.
bool IsCandidate(const Graph& g, const PatternQuery& q, QNodeId u, NodeId v) {
  const QueryNode& qn = q.node(u);
  if (qn.label != kWildcardSymbol && g.label(v) != qn.label) return false;
  for (const Literal& lit : qn.literals) {
    if (!lit.Matches(g, v)) return false;
  }
  return true;
}

std::vector<NodeId> ComputeCandidates(const Graph& g, const PatternQuery& q,
                                      QNodeId u) {
  std::vector<NodeId> out;
  const QueryNode& qn = q.node(u);
  if (qn.label == kWildcardSymbol) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (IsCandidate(g, q, u, v)) out.push_back(v);
    }
    return out;
  }
  for (NodeId v : g.NodesWithLabel(qn.label)) {
    if (IsCandidate(g, q, u, v)) out.push_back(v);
  }
  return out;
}

}  // namespace wqe
