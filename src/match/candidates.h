#ifndef WQE_MATCH_CANDIDATES_H_
#define WQE_MATCH_CANDIDATES_H_

#include <vector>

#include "graph/graph.h"
#include "query/query.h"

namespace wqe {

/// True iff graph node v is a candidate of query node u (§2.1): labels agree
/// (⊥ matches anything) and every literal of F_Q(u) holds on v's tuple.
bool IsCandidate(const Graph& g, const PatternQuery& q, QNodeId u, NodeId v);

/// Candidate set V_u, enumerated through the label index (or all nodes for
/// the ⊥ label), sorted ascending.
std::vector<NodeId> ComputeCandidates(const Graph& g, const PatternQuery& q,
                                      QNodeId u);

}  // namespace wqe

#endif  // WQE_MATCH_CANDIDATES_H_
