#ifndef WQE_CHASE_FM_ANSW_H_
#define WQE_CHASE_FM_ANSW_H_

#include "chase/solve.h"

namespace wqe {

/// Baseline FMAnsW (§7): query suggestion by frequent-pattern mining around
/// V_{u_o}, adapting the reformulation approach of Mottin et al. [21].
/// Mines features frequent among the exemplar-relevant nodes — attribute
/// values and adjacent labels — assembles candidate rewrites of the focus
/// star from feature subsets within the budget, and evaluates each from
/// scratch (no picky guidance, no star-view reuse), returning the rewrite
/// with the best closeness. Deliberately exhaustive over its bounded feature
/// lattice; the comparison baseline of Fig 10(a)/(i) and Fig 12.
///
/// Thin wrapper over the unified dispatcher (chase/solve.h); the solver body
/// lives in internal::RunFMAnsW.
inline ChaseResult FMAnsW(const Graph& g, const WhyQuestion& w,
                          const ChaseOptions& opts) {
  return Solve(g, w, opts, Algorithm::kFMAnsW);
}

}  // namespace wqe

#endif  // WQE_CHASE_FM_ANSW_H_
