#ifndef WQE_CHASE_ANSWE_H_
#define WQE_CHASE_ANSWE_H_

#include "chase/solve.h"

namespace wqe {

/// Algorithm AnsWE (§6.1, Lemma 6.2): answers removal-only Why-Empty
/// questions — Q returns no relevant match; revise it with RmL / RmE so at
/// least one relevant candidate becomes a match, in
/// O(|Q| · |rep(ℰ,V)| · |V|) time.
///
/// Each literal of the focus, each non-focus node (as a single anchored
/// edge at its pattern distance), and each literal of a non-focus node is an
/// *atomic condition* evaluated as its own query fragment. A relevant
/// candidate v is repairable iff the total cost of the removal operators for
/// the fragments v fails fits in B; the cheapest repairable candidate's
/// operator set is the answer.
///
/// Thin wrapper over the unified dispatcher (chase/solve.h); the solver body
/// lives in internal::RunAnsWE.
inline ChaseResult AnsWE(const Graph& g, const WhyQuestion& w,
                         const ChaseOptions& opts) {
  return Solve(g, w, opts, Algorithm::kAnsWE);
}

}  // namespace wqe

#endif  // WQE_CHASE_ANSWE_H_
