#ifndef WQE_CHASE_APX_WHYM_H_
#define WQE_CHASE_APX_WHYM_H_

#include "chase/solve.h"

namespace wqe {

/// Algorithm ApxWhyM (Fig 9, Theorem 6.1): answers Why-Many questions —
/// refine Q (refinement operators only, cost ≤ B) so that as many
/// exemplar-irrelevant matches as possible are removed, maximizing
/// cl(Q'(G), ℰ).
///
/// Reduction to budgeted weighted max-coverage: each seed refinement
/// operator o covers IM(o) ⊆ I(u_o); greedy marginal-gain-per-cost
/// selection compared against the best single operator yields the
/// fixed-parameter ½(1 − 1/e) approximation.
///
/// Thin wrapper over the unified dispatcher (chase/solve.h); the solver body
/// lives in internal::RunApxWhyM.
inline ChaseResult ApxWhyM(const Graph& g, const WhyQuestion& w,
                           const ChaseOptions& opts) {
  return Solve(g, w, opts, Algorithm::kApxWhyM);
}

}  // namespace wqe

#endif  // WQE_CHASE_APX_WHYM_H_
