#ifndef WQE_EXEMPLAR_REP_H_
#define WQE_EXEMPLAR_REP_H_

#include <span>
#include <vector>

#include "exemplar/closeness.h"
#include "exemplar/exemplar.h"

namespace wqe {

/// The representation rep(ℰ, V) of an exemplar in a node universe
/// (Lemma 2.2): the maximal node set satisfying every tuple pattern and
/// every constraint literal.
struct RepResult {
  /// Members of rep(ℰ, V), sorted ascending.
  std::vector<NodeId> nodes;

  /// cl(v, ℰ) for each member (parallel to `nodes`).
  std::vector<double> closeness;

  /// Surviving (node, tuple) match pairs: per tuple index, the sorted nodes
  /// still playing the v ~ t_i role after constraint enforcement.
  std::vector<std::vector<NodeId>> per_tuple;

  /// ℰ is nontrivial iff rep(ℰ, V) ≠ ∅, which requires every tuple pattern
  /// to retain at least one match.
  bool nontrivial = false;

  /// Membership by binary search of `nodes`.
  bool Contains(NodeId v) const;
  /// cl(v, ℰ) for a member, 0 otherwise.
  double ClosenessOf(NodeId v) const;
};

/// Per-tuple match sets (v, t_i) of an exemplar over some node set, indexed
/// by tuple.
using TupleMatchSets = std::vector<std::vector<NodeId>>;

/// Stage 1 of Lemma 2.2: for each tuple pattern t_i, the nodes of
/// `universe` that vsim-match it — rep(t_i, V) — in universe order. This
/// is the string-similarity pass; it depends only on G, ℰ and the universe.
TupleMatchSets ComputeVsimSets(const ClosenessEvaluator& closeness,
                               const Exemplar& e,
                               std::span<const NodeId> universe);

/// Stage 2 of Lemma 2.2: the fixpoint that enforces C over the per-tuple
/// match sets, reducing `per_tuple` in place:
///  - constant literals filter their tuple's matches directly;
///  - '=' variable literals keep the largest value-agreement group;
///  - ordered variable literals run a two-sided semi-join reduction until
///    every surviving match has a witness on the other side.
/// Returns whether every tuple keeps a match (ℰ is nontrivial over these
/// sets); on false every set is cleared.
bool EnforceConstraints(const Graph& g, const Exemplar& e,
                        TupleMatchSets& per_tuple);

/// rep(ℰ, V) from stage-1 sets already computed over V: the fixpoint, then
/// cl(v, ℰ) of every member.
RepResult ComputeRepFromVsimSets(const ClosenessEvaluator& closeness,
                                 const Exemplar& e, TupleMatchSets vsim_sets);

/// Computes rep(ℰ, universe) by the Lemma 2.2 procedure: stage 1, stage 2,
/// then the closeness of the members. If any tuple's match set empties, rep
/// is ∅ (ℰ is trivial/unsatisfiable over this universe). The universe is
/// typically V_{u_o}, the focus candidates — the only nodes whose relevance
/// the measures of §3 consult.
RepResult ComputeRep(const ClosenessEvaluator& closeness, const Exemplar& e,
                     std::span<const NodeId> universe);

}  // namespace wqe

#endif  // WQE_EXEMPLAR_REP_H_
