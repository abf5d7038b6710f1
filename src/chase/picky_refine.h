#ifndef WQE_CHASE_PICKY_REFINE_H_
#define WQE_CHASE_PICKY_REFINE_H_

#include <vector>

#include "chase/picky_relax.h"

namespace wqe {

/// Sampled witness valuations for a set of focus matches: the raw material
/// of refinement-operator generation ("matches reachable by some RM node",
/// §5.3). For each focus match, up to ChaseOptions::max_witnesses complete
/// valuations are enumerated.
struct WitnessSet {
  std::vector<NodeId> focus_nodes;
  /// per focus node: its sampled assignments (each indexed by QNodeId,
  /// kInvalidNode on inactive query nodes).
  std::vector<std::vector<std::vector<NodeId>>> assignments;
};

/// Enumerates witness valuations for `focus_nodes` under query `q`, whose
/// key (= QueryKey::Of(q)) is `key`.
WitnessSet CollectWitnesses(ChaseContext& ctx, const PatternQuery& q,
                            const QueryKey& key,
                            const std::vector<NodeId>& focus_nodes);

/// GenRf (§5.3 + Appendix B): generates picky refinement operators. AddL
/// enumerates attribute values carried by RM witnesses and missing from
/// F_Q(u); RfL tightens constants toward RM witness values; RfE decrements
/// bounds > 1; AddE adds edges between the focus and non-adjacent pattern
/// nodes (bounded by RM witness distances) or to fresh pattern nodes labeled
/// by neighbors common to RM matches. Every operator keeps ĪM(o) as support
/// and is scored p'(o) = (λ|ĪM| − Σ_{R̲M} cl) / |V_{u_o}|.
std::vector<ScoredOp> GenerateRefineOps(ChaseContext& ctx, const EvalResult& cur);

}  // namespace wqe

#endif  // WQE_CHASE_PICKY_REFINE_H_
