#include "chase/chase.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "chase/engine.h"

namespace wqe {

namespace {

// V_C ⊨ sub-exemplar: coverage of the enforced tuples and satisfaction of
// the enforced constraints over the answer set.
bool SatisfiesSubExemplar(const ChaseContext& ctx,
                          const std::vector<NodeId>& answer,
                          const std::vector<bool>& tuples,
                          const std::vector<bool>& constraints) {
  const Exemplar& full = ctx.question().exemplar;
  Exemplar sub;
  std::vector<int> tuple_remap(full.tuples().size(), -1);
  for (size_t i = 0; i < full.tuples().size(); ++i) {
    if (i < tuples.size() && tuples[i]) {
      tuple_remap[i] = static_cast<int>(sub.AddTuple(full.tuples()[i]));
    }
  }
  for (size_t i = 0; i < full.constraints().size(); ++i) {
    if (i >= constraints.size() || !constraints[i]) continue;
    ConstraintLiteral c = full.constraints()[i];
    // A constraint only transfers when its referenced tuples are enforced.
    if (tuple_remap[c.lhs.tuple] < 0) continue;
    if (c.kind == ConstraintLiteral::Kind::kVarVar &&
        tuple_remap[c.rhs.tuple] < 0) {
      continue;
    }
    c.lhs.tuple = static_cast<uint32_t>(tuple_remap[c.lhs.tuple]);
    if (c.kind == ConstraintLiteral::Kind::kVarVar) {
      c.rhs.tuple = static_cast<uint32_t>(tuple_remap[c.rhs.tuple]);
    }
    sub.AddConstraint(std::move(c));
  }
  if (sub.empty()) return true;  // ℰ_0 is vacuously satisfied
  if (answer.empty()) return false;
  return ComputeRep(ctx.closeness(), sub, answer).nontrivial;
}

}  // namespace

ChaseState QChase::Initial() {
  ChaseState s;
  s.query = ctx_.question().query;
  s.matches = ctx_.root()->matches;
  s.tuples_enforced.assign(ctx_.question().exemplar.tuples().size(), false);
  s.constraints_enforced.assign(ctx_.question().exemplar.constraints().size(),
                                false);
  return s;
}

bool QChase::AnswerSatisfiesAccumulated(const ChaseState& state) const {
  return SatisfiesSubExemplar(ctx_, state.matches, state.tuples_enforced,
                              state.constraints_enforced);
}

std::optional<ChaseState> QChase::Step(const ChaseState& state, const Op& op) {
  ChaseState next = state;
  if (!op.is_noop()) {
    if (!Apply(op, &next.query, ctx_.options().max_bound)) return std::nullopt;
    next.ops.Append(op);
    next.cost = state.cost + ctx_.OpCostOf(op);
    auto eval = ctx_.Evaluate(next.query, next.ops);
    next.matches = eval->matches;
  }

  const Exemplar& full = ctx_.question().exemplar;
  const ClosenessEvaluator& cl = ctx_.closeness();

  if (op.is_relax() || op.is_noop()) {
    // Rule (b): tuples now matched by some answer node join 𝒯_{i+1}.
    for (size_t t = 0; t < full.tuples().size(); ++t) {
      if (next.tuples_enforced[t]) continue;
      for (NodeId v : next.matches) {
        if (cl.Vsim(v, full.tuples()[t])) {
          next.tuples_enforced[t] = true;
          break;
        }
      }
    }
    // Rule (c): constraints newly satisfied by the answer join C_{i+1}.
    for (size_t i = 0; i < full.constraints().size(); ++i) {
      if (next.constraints_enforced[i]) continue;
      std::vector<bool> just_this(full.constraints().size(), false);
      just_this[i] = true;
      if (SatisfiesSubExemplar(ctx_, next.matches, next.tuples_enforced,
                               just_this)) {
        next.constraints_enforced[i] = true;
      }
    }
  } else {
    // Refinement rules (b)/(c): drop tuples no longer covered and
    // constraints no longer satisfied.
    for (size_t t = 0; t < full.tuples().size(); ++t) {
      if (!next.tuples_enforced[t]) continue;
      bool covered = false;
      for (NodeId v : next.matches) {
        if (cl.Vsim(v, full.tuples()[t])) {
          covered = true;
          break;
        }
      }
      if (!covered) next.tuples_enforced[t] = false;
    }
    for (size_t i = 0; i < full.constraints().size(); ++i) {
      if (!next.constraints_enforced[i]) continue;
      std::vector<bool> just_this(full.constraints().size(), false);
      just_this[i] = true;
      if (!SatisfiesSubExemplar(ctx_, next.matches, next.tuples_enforced,
                                just_this)) {
        next.constraints_enforced[i] = false;
      }
    }
  }

  if (!AnswerSatisfiesAccumulated(next)) return std::nullopt;
  return next;
}

bool QChase::IsTerminal(const ChaseState& state) {
  auto eval = ctx_.Evaluate(state.query, state.ops);
  ChaseNode node;
  node.eval = eval;
  GenerateOps(ctx_, node, /*best_cl=*/-1e18, /*per_class_cap=*/0, nullptr);
  while (const ScoredOp* so = node.Poll()) {
    if (engine::WithinBudget(state.cost + so->cost, ctx_.options().budget)) {
      if (Step(state, so->op).has_value()) return false;
    }
  }
  return true;
}

namespace {

void ExhaustiveDfs(ChaseContext& ctx, const std::shared_ptr<EvalResult>& cur,
                   size_t depth, size_t max_depth,
                   std::unordered_map<QueryKey, double, QueryKey::Hash>& visited,
                   ExhaustiveResult& result) {
  ++result.sequences_explored;
  if (cur->satisfies_exemplar && cur->cl > result.best_closeness) {
    result.best_closeness = cur->cl;
    result.found = true;
  }
  if (depth >= max_depth) return;

  ChaseNode node;
  node.eval = cur;
  // Callers build the context with use_pruning = false so the generated
  // operator universe is gated only by normal form and budget.
  GenerateOps(ctx, node, /*best_cl=*/-1e18, /*per_class_cap=*/0, nullptr);
  while (const ScoredOp* so = node.Poll()) {
    PatternQuery q = cur->query;
    if (!Apply(so->op, &q, ctx.options().max_bound)) continue;
    QueryKey key = ctx.RenderKey(q);
    const double cost = cur->cost + so->cost;
    // Revisit a rewrite only when reached more cheaply: the cheaper visit's
    // subtree strictly contains the pricier one's.
    auto seen = visited.find(key);
    if (seen != visited.end() && seen->second <= cost + engine::kEps) continue;
    visited[key] = cost;
    OpSequence ops = cur->ops;
    ops.Append(so->op);
    auto eval = ctx.Evaluate(q, key, std::move(ops));
    ExhaustiveDfs(ctx, eval, depth + 1, max_depth, visited, result);
  }
}

}  // namespace

ExhaustiveResult ExhaustiveChase(ChaseContext& ctx, size_t max_depth) {
  ExhaustiveResult result;
  std::unordered_map<QueryKey, double, QueryKey::Hash> visited;
  visited[ctx.root()->key] = 0.0;
  ExhaustiveDfs(ctx, ctx.root(), 0, max_depth, visited, result);
  return result;
}

}  // namespace wqe
