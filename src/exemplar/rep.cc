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

bool RepResult::Contains(NodeId v) const {
  return std::binary_search(nodes.begin(), nodes.end(), v);
}

double RepResult::ClosenessOf(NodeId v) const {
  auto it = std::lower_bound(nodes.begin(), nodes.end(), v);
  if (it == nodes.end() || *it != v) return 0.0;
  return closeness[static_cast<size_t>(it - nodes.begin())];
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

  // cl(v, ℰ) is the max over the tuples v still plays: gather every
  // (node, tuple) pair's score, sort by node, keep each node's max.
  std::vector<std::pair<NodeId, double>> scored;
  for (size_t i = 0; i < result.per_tuple.size(); ++i) {
    for (NodeId v : result.per_tuple[i]) {
      scored.emplace_back(v, closeness.ClNodeTuple(v, e.tuples()[i]));
    }
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [v, cl] : scored) {
    if (!result.nodes.empty() && result.nodes.back() == v) {
      result.closeness.back() = std::max(result.closeness.back(), cl);
    } else {
      result.nodes.push_back(v);
      result.closeness.push_back(cl);
    }
  }
  return result;
}

RepResult ComputeRep(const ClosenessEvaluator& closeness, const Exemplar& e,
                     std::span<const NodeId> universe) {
  return ComputeRepFromVsimSets(closeness, e,
                                ComputeVsimSets(closeness, e, universe));
}

}  // namespace wqe
