#ifndef WQE_EXEMPLAR_CLOSENESS_H_
#define WQE_EXEMPLAR_CLOSENESS_H_

#include "exemplar/exemplar.h"
#include "graph/adom.h"
#include "graph/graph.h"

namespace wqe {

/// Tunables of the closeness measure (§3).
struct ClosenessConfig {
  /// vsim threshold θ: v ~ t iff cl(v, t) >= θ. θ = 1 demands exact matches
  /// on every constant cell; lower values admit approximate entities.
  double theta = 1.0;
  /// Penalty weight λ on irrelevant matches in cl(Q(G), ℰ).
  double lambda = 1.0;
};

/// Computes the node-level closeness scores of §3 against a fixed graph:
/// cl(v, t) (average attribute similarity over 𝒜(t)), the predicate
/// vsim(v, t), and cl(v, ℰ) = max over matched tuples.
class ClosenessEvaluator {
 public:
  ClosenessEvaluator(const Graph& g, const ActiveDomains& adom,
                     ClosenessConfig config = {})
      : g_(g), adom_(adom), config_(config) {}

  /// cl(v, t) ∈ [0, 1]: wildcard / variable cells score 1; constant cells
  /// score their value similarity (0 when the node lacks the attribute).
  /// An empty tuple pattern scores 1 (matches anything vacuously).
  double ClNodeTuple(NodeId v, const TuplePattern& t) const;

  /// vsim(v, t): cl(v, t) >= θ. Decided on an upper bound of cl(v, t)
  /// first, which needs no edit distance; cl(v, t) is computed only when
  /// the bound reaches θ.
  bool Vsim(NodeId v, const TuplePattern& t) const;

  /// cl(v, ℰ) = max_{t ∈ 𝒯, v ~ t} cl(v, t); 0 when v matches no tuple.
  double ClNodeExemplar(NodeId v, const Exemplar& e) const;

  const ClosenessConfig& config() const { return config_; }
  const Graph& graph() const { return g_; }
  const ActiveDomains& adom() const { return adom_; }

 private:
  const Graph& g_;
  const ActiveDomains& adom_;
  ClosenessConfig config_;
};

}  // namespace wqe

#endif  // WQE_EXEMPLAR_CLOSENESS_H_
