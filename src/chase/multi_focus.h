#ifndef WQE_CHASE_MULTI_FOCUS_H_
#define WQE_CHASE_MULTI_FOCUS_H_

#include "chase/solve.h"

namespace wqe {

/// Why-question with multiple focus nodes (Appendix B: "Queries with
/// multiple focus nodes"): each focus u_i carries its own exemplar ℰ_i;
/// ℰ is their union, the answer is the family { Q(u_i, G) }, and a rewrite
/// is judged by the sum of per-focus closenesses.
struct MultiFocusQuestion {
  PatternQuery query;  // its focus() field is ignored
  std::vector<QNodeId> foci;
  std::vector<Exemplar> exemplars;  // parallel to foci
};

/// One suggested rewrite for a multi-focus question.
struct MultiFocusAnswer {
  PatternQuery rewrite;
  /// Cached rewrite.Fingerprint(), computed once at construction (dedup
  /// compares it against every offered rewrite).
  std::string fingerprint;
  OpSequence ops;
  double cost = 0;
  /// Σ_i cl(Q'(u_i, G), ℰ_i).
  double total_closeness = 0;
  std::vector<std::vector<NodeId>> matches_per_focus;
  std::vector<double> closeness_per_focus;
  /// Q'(u_i, G) ⊨ ℰ_i for every i.
  bool satisfies_all = false;
};

struct MultiFocusResult {
  std::vector<MultiFocusAnswer> answers;  // best first
  double cl_star_total = 0;
  ChaseStats stats;

  bool found() const { return !answers.empty(); }
  const MultiFocusAnswer& best() const { return answers.front(); }
};

/// Best-first Q-Chase over the joint objective: one evaluation context per
/// focus (sharing the graph indexes), picky operators pooled across foci,
/// pruning against the summed upper bound Σ_i cl⁺_i.
MultiFocusResult AnsWMultiFocus(const Graph& g, const MultiFocusQuestion& w,
                                const ChaseOptions& opts);

}  // namespace wqe

#endif  // WQE_CHASE_MULTI_FOCUS_H_
