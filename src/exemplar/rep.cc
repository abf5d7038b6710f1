#include "exemplar/rep.h"

#include <algorithm>
#include <map>

namespace wqe {

namespace {

// Removes from `nodes` every node failing `pred`; returns true if changed.
template <typename Pred>
bool FilterInPlace(std::vector<NodeId>& nodes, Pred pred) {
  const size_t before = nodes.size();
  nodes.erase(std::remove_if(nodes.begin(), nodes.end(),
                             [&](NodeId v) { return !pred(v); }),
              nodes.end());
  return nodes.size() != before;
}

}  // namespace

bool RepResult::Contains(NodeId v) const { return index_.count(v) > 0; }

double RepResult::ClosenessOf(NodeId v) const {
  auto it = index_.find(v);
  return it == index_.end() ? 0.0 : it->second;
}

TupleMatchSets ComputeVsimSets(const ClosenessEvaluator& closeness,
                               const Exemplar& e,
                               std::span<const NodeId> universe) {
  TupleMatchSets sets(e.tuples().size());
  for (size_t i = 0; i < sets.size(); ++i) {
    for (NodeId v : universe) {
      if (closeness.Vsim(v, e.tuples()[i])) sets[i].push_back(v);
    }
  }
  return sets;
}

bool EnforceConstraints(const Graph& g, const Exemplar& e,
                        TupleMatchSets& per_tuple) {
  const size_t num_tuples = per_tuple.size();
  // Fixpoint enforcement of C over the (node, tuple) match pairs. Every pass
  // only removes pairs, so the loop terminates.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const ConstraintLiteral& c : e.constraints()) {
      if (c.lhs.tuple >= num_tuples) continue;
      auto& lhs_set = per_tuple[c.lhs.tuple];

      if (c.kind == ConstraintLiteral::Kind::kVarConst) {
        changed |= FilterInPlace(lhs_set, [&](NodeId v) {
          const Value* val = g.attr(v, c.lhs.attr);
          return val != nullptr && EvalCmp(*val, c.op, c.constant);
        });
        continue;
      }

      if (c.rhs.tuple >= num_tuples) continue;
      auto& rhs_set = per_tuple[c.rhs.tuple];

      if (c.op == CmpOp::kEq) {
        // "For any pair v ~ t, v' ~ t': v.A = v'.A'." The maximal satisfying
        // subset keeps a single agreement value; pick the one retaining the
        // most pairs (a maximal representative — maximality by inclusion is
        // not unique here).
        std::map<Value, size_t> counts;
        for (NodeId v : lhs_set) {
          if (const Value* val = g.attr(v, c.lhs.attr)) ++counts[*val];
        }
        for (NodeId v : rhs_set) {
          if (const Value* val = g.attr(v, c.rhs.attr)) ++counts[*val];
        }
        if (counts.empty()) {
          changed |= !lhs_set.empty() || !rhs_set.empty();
          lhs_set.clear();
          rhs_set.clear();
          continue;
        }
        Value best = counts.begin()->first;
        size_t best_count = 0;
        for (const auto& [val, count] : counts) {
          if (count > best_count) {
            best = val;
            best_count = count;
          }
        }
        changed |= FilterInPlace(lhs_set, [&](NodeId v) {
          const Value* val = g.attr(v, c.lhs.attr);
          return val != nullptr && *val == best;
        });
        changed |= FilterInPlace(rhs_set, [&](NodeId v) {
          const Value* val = g.attr(v, c.rhs.attr);
          return val != nullptr && *val == best;
        });
        continue;
      }

      // Ordered variable literal: two-sided semi-join reduction.
      auto has_witness = [&](NodeId v, AttrId va, const std::vector<NodeId>& others,
                             AttrId oa, bool v_on_lhs) {
        const Value* val = g.attr(v, va);
        if (val == nullptr) return false;
        for (NodeId w : others) {
          const Value* wal = g.attr(w, oa);
          if (wal == nullptr) continue;
          if (v_on_lhs ? EvalCmp(*val, c.op, *wal) : EvalCmp(*wal, c.op, *val)) {
            return true;
          }
        }
        return false;
      };
      // Snapshot rhs before filtering lhs so both sides reduce against the
      // same generation (the fixpoint loop re-runs until stable anyway).
      const std::vector<NodeId> rhs_snapshot = rhs_set;
      changed |= FilterInPlace(lhs_set, [&](NodeId v) {
        return has_witness(v, c.lhs.attr, rhs_snapshot, c.rhs.attr, true);
      });
      changed |= FilterInPlace(rhs_set, [&](NodeId v) {
        return has_witness(v, c.rhs.attr, lhs_set, c.lhs.attr, false);
      });
    }
  }

  // Coverage: V_C ⊨ 𝒯 needs every tuple matched by some surviving node.
  bool covered = num_tuples > 0;
  for (const auto& matches : per_tuple) {
    if (matches.empty()) covered = false;
  }
  if (!covered) {
    for (auto& matches : per_tuple) matches.clear();
  }
  return covered;
}

RepResult ComputeRepFromVsimSets(const ClosenessEvaluator& closeness,
                                 const Exemplar& e, TupleMatchSets vsim_sets) {
  RepResult result;
  result.per_tuple = std::move(vsim_sets);
  result.nontrivial =
      EnforceConstraints(closeness.graph(), e, result.per_tuple);
  if (!result.nontrivial) return result;

  const size_t num_tuples = result.per_tuple.size();
  for (size_t i = 0; i < num_tuples; ++i) {
    for (NodeId v : result.per_tuple[i]) {
      const double cl = closeness.ClNodeTuple(v, e.tuples()[i]);
      auto [it, inserted] = result.index_.emplace(v, cl);
      if (!inserted) it->second = std::max(it->second, cl);
    }
  }
  result.nodes.reserve(result.index_.size());
  for (const auto& [v, cl] : result.index_) result.nodes.push_back(v);
  std::sort(result.nodes.begin(), result.nodes.end());
  result.closeness.reserve(result.nodes.size());
  for (NodeId v : result.nodes) result.closeness.push_back(result.index_[v]);
  return result;
}

RepResult ComputeRep(const ClosenessEvaluator& closeness, const Exemplar& e,
                     std::span<const NodeId> universe) {
  return ComputeRepFromVsimSets(closeness, e,
                                ComputeVsimSets(closeness, e, universe));
}

}  // namespace wqe
