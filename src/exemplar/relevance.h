#ifndef WQE_EXEMPLAR_RELEVANCE_H_
#define WQE_EXEMPLAR_RELEVANCE_H_

#include <span>
#include <vector>

#include "exemplar/rep.h"

namespace wqe {

/// Relevance status of a focus candidate v ∈ V_{u_o} w.r.t. (Q, ℰ) — the
/// 2×2 table of §2.2.
enum class Relevance : uint8_t {
  kRM,  // relevant match:      v ∈ Q(G), v ∈ rep(ℰ, V)
  kIM,  // irrelevant match:    v ∈ Q(G), v ∉ rep(ℰ, V)
  kRC,  // relevant candidate:  v ∉ Q(G), v ∈ rep(ℰ, V)
  kIC,  // irrelevant candidate
};

const char* RelevanceName(Relevance r);

/// Classification of every focus candidate, plus the §3 closeness measures
/// derived from it. The irrelevant candidates IC are every other candidate;
/// nothing reads them as a list, so only their count is implied:
/// num_candidates − |RM| − |IM| − |RC|.
struct RelevanceSets {
  std::vector<NodeId> rm, im, rc;

  /// Total candidate count |V_{u_o}| (the closeness normalizer).
  size_t num_candidates = 0;

  /// Σ_{v ∈ RM} cl(v, ℰ).
  double rm_closeness_sum = 0;

  /// Answer closeness cl(Q(G), ℰ) = (Σ_RM cl − λ|IM|) / |V_{u_o}| (§3).
  double AnswerCloseness(double lambda) const {
    if (num_candidates == 0) return 0;
    return (rm_closeness_sum - lambda * static_cast<double>(im.size())) /
           static_cast<double>(num_candidates);
  }

  /// Upper bound cl⁺(Q, ℰ) = Σ_RM cl / |V_{u_o}| (§5.4): what cl could reach
  /// if every irrelevant match were refined away for free.
  double UpperBound() const {
    if (num_candidates == 0) return 0;
    return rm_closeness_sum / static_cast<double>(num_candidates);
  }

  /// The class of a candidate (binary search of rm, im and rc; kIC for
  /// anything else).
  Relevance StatusOf(NodeId v) const;
};

/// Classifies `candidates` (= V_{u_o}) against the answer `matches` (= Q(G))
/// and the exemplar representation `rep`, in one merge of `matches` and
/// rep.nodes: both must be ascending (rep.nodes is) and lie inside
/// `candidates`, which holds since operators never change a node label.
/// Each class is ascending, and rm_closeness_sum adds rep.closeness in that
/// order.
RelevanceSets Classify(std::span<const NodeId> candidates,
                       std::span<const NodeId> matches, const RepResult& rep);

/// Theoretical optimal closeness cl* (§5.1 line 1): the closeness a rewrite
/// achieves when its answer is exactly rep(ℰ, V). The paper states
/// |rep| / |V_{u_o}| assuming unit per-node closeness; with graded cl(v, ℰ)
/// the tight bound is Σ_{v ∈ rep} cl(v, ℰ) / |V_{u_o}| (equal when θ = 1 and
/// exemplars are designated entities).
double TheoreticalOptimal(const RepResult& rep, size_t num_candidates);

}  // namespace wqe

#endif  // WQE_EXEMPLAR_RELEVANCE_H_
