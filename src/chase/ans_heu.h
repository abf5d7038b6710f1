#ifndef WQE_CHASE_ANS_HEU_H_
#define WQE_CHASE_ANS_HEU_H_

#include "chase/solve.h"

namespace wqe {

/// Algorithm AnsHeu (§5.5): breadth-first beam search over the Q-Chase tree
/// with beam width k = ChaseOptions::beam. Each round expands every rewrite
/// in the beam with its top-k picky operators per class (at most 8k ops),
/// evaluates the children, and keeps the k best by closeness. No
/// backtracking — hence the flat time curves of Fig 10(d)-(g).
///
/// With ChaseOptions::random_ops = true this is AnsHeuB, the ablation that
/// replaces picky ranking by seeded random operator selection (Exp-3).
///
/// Thin wrapper over the unified dispatcher (chase/solve.h); the solver body
/// lives in internal::RunAnsHeu.
inline ChaseResult AnsHeu(const Graph& g, const WhyQuestion& w,
                          const ChaseOptions& opts) {
  return Solve(g, w, opts, Algorithm::kAnsHeu);
}

}  // namespace wqe

#endif  // WQE_CHASE_ANS_HEU_H_
