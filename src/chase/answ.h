#ifndef WQE_CHASE_ANSW_H_
#define WQE_CHASE_ANSW_H_

#include "chase/solve.h"

namespace wqe {

/// Algorithm AnsW (Fig 5): anytime best-first simulation of the Q-Chase
/// tree with backtracking, picky-operator generation (Fig 7), the §5.4
/// pruning strategies, star-view caching, and the top-k extension of §6.2.
/// The ablations of §7 are option toggles:
///   AnsW    — defaults;
///   AnsWnc  — use_cache = false;
///   AnsWb   — use_cache = false, use_pruning = false.
///
/// Thin wrapper over the unified dispatcher (chase/solve.h); the solver body
/// lives in internal::RunAnsW.
inline ChaseResult AnsW(const Graph& g, const WhyQuestion& w,
                        const ChaseOptions& opts) {
  return Solve(g, w, opts, Algorithm::kAnsW);
}

}  // namespace wqe

#endif  // WQE_CHASE_ANSW_H_
