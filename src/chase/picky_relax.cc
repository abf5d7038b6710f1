#include "chase/picky_relax.h"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>

#include "common/thread_pool.h"
#include "match/filter_plan.h"

namespace wqe {

namespace {

// Dedup key for an operator instance.
std::string OpKey(const Op& op) {
  std::ostringstream out;
  out << static_cast<int>(op.kind) << '|' << op.u << '|' << op.v << '|'
      << LiteralKey(op.lit) << '|' << LiteralKey(op.new_lit) << '|'
      << op.bound << '|' << op.new_bound << '|' << op.new_node_label << '|'
      << op.creates_node;
  return out.str();
}

// Accumulates candidate operators keyed by identity, merging their RC
// support sets.
class OpAccumulator {
 public:
  void Add(Op op, NodeId rc_node) {
    auto [it, inserted] = index_.try_emplace(OpKey(op), ops_.size());
    if (inserted) {
      ops_.push_back(ScoredOp{std::move(op), 0, 0, {}});
    }
    auto& support = ops_[it->second].support;
    if (support.empty() || support.back() != rc_node) support.push_back(rc_node);
  }

  std::vector<ScoredOp> Take() { return std::move(ops_); }

 private:
  std::map<std::string, size_t> index_;
  std::vector<ScoredOp> ops_;
};

// Relaxed-literal candidates for a failing literal `lit` at node `u`, given
// the active-domain slice `values` = the attribute values of the RC-side
// nodes the relaxation is meant to admit (adom(A, E_P), §5.3).
void GenerateRxLForLiteral(QNodeId u, const Literal& lit,
                           const std::vector<double>& values,
                           std::vector<Op>& out) {
  if (!values.empty() && lit.constant.is_num()) {
    const double c = lit.constant.num();
    double a;
    switch (lit.op) {
      case CmpOp::kGe:
      case CmpOp::kGt:
        // Relax downward to the largest admitted value below c.
        if (ActiveDomains::LargestBelow(values, c, &a)) {
          Op op;
          op.kind = OpKind::kRxL;
          op.u = u;
          op.lit = lit;
          op.new_lit = {lit.attr, lit.op, Value::Num(a)};
          out.push_back(op);
        }
        break;
      case CmpOp::kLe:
      case CmpOp::kLt:
        if (ActiveDomains::SmallestAbove(values, c, &a)) {
          Op op;
          op.kind = OpKind::kRxL;
          op.u = u;
          op.lit = lit;
          op.new_lit = {lit.attr, lit.op, Value::Num(a)};
          out.push_back(op);
        }
        break;
      case CmpOp::kEq:
        // Equality widens to a one-sided range covering the nearest admitted
        // value on either side.
        if (ActiveDomains::LargestBelow(values, c, &a)) {
          Op op;
          op.kind = OpKind::kRxL;
          op.u = u;
          op.lit = lit;
          op.new_lit = {lit.attr, CmpOp::kGe, Value::Num(a)};
          out.push_back(op);
        }
        if (ActiveDomains::SmallestAbove(values, c, &a)) {
          Op op;
          op.kind = OpKind::kRxL;
          op.u = u;
          op.lit = lit;
          op.new_lit = {lit.attr, CmpOp::kLe, Value::Num(a)};
          out.push_back(op);
        }
        break;
    }
  }
  // Categorical literals (and any literal as a fallback) relax by removal;
  // refinement may later re-enumerate values via AddL (§5.3).
  Op rm;
  rm.kind = OpKind::kRmL;
  rm.u = u;
  rm.lit = lit;
  out.push_back(rm);
}

}  // namespace

std::vector<ScoredOp> GenerateRelaxOps(ChaseContext& ctx, const EvalResult& cur) {
  const Graph& g = ctx.graph();
  const PatternQuery& q = cur.query;
  const QNodeId focus = q.focus();
  const uint32_t b_m = ctx.options().max_bound;
  OpAccumulator acc;

  // Diagnose the highest-closeness relevant candidates first.
  std::vector<NodeId> rcs = cur.rel.rc;
  std::stable_sort(rcs.begin(), rcs.end(), [&](NodeId a, NodeId b) {
    return ctx.rep().ClosenessOf(a) > ctx.rep().ClosenessOf(b);
  });
  if (rcs.size() > ctx.options().max_diagnosed_nodes) {
    rcs.resize(ctx.options().max_diagnosed_nodes);
  }

  const auto active_edges = q.ActiveEdges();

  // One compiled filter per query node, shared by every RC's diagnosis:
  // candidate probes below are merged-walk plan probes, not per-literal
  // re-interpretation. Same conjunction as the match layer's verification.
  const match::QueryFilterPlans plans = match::QueryFilterPlans::Compile(q);

  // Per-RC diagnosis is independent: each RC explores the frozen graph with
  // its own BFS scratch and emits an ordered op list. The lists are folded
  // into the accumulator in RC order below, so the merged support sets (and
  // hence pickiness scores) are byte-identical to the serial diagnosis.
  auto diagnose = [&](NodeId v0, BoundedBfs& bfs, std::vector<Op>& out) {
    // (1) Literals at the focus that v0 fails.
    for (const Literal& lit : q.node(focus).literals) {
      if (match::LiteralHolds(g, v0, lit)) continue;
      // adom(A, E_P): values of this attribute across the diagnosed RCs.
      std::vector<double> values;
      for (NodeId rc : rcs) {
        const Value* val = g.attr(rc, lit.attr);
        if (val != nullptr && val->is_num()) values.push_back(val->num());
      }
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
      GenerateRxLForLiteral(focus, lit, values, out);
    }

    // (2) Edges adjacent to the focus (picky-edge candidates), and beyond
    // them the two-edge paths of Appendix B.
    for (size_t ei : active_edges) {
      const QueryEdge& e = q.edge(ei);
      QNodeId other = kNoQNode;
      bool outgoing = true;  // focus -> other
      if (e.from == focus) {
        other = e.to;
        outgoing = true;
      } else if (e.to == focus) {
        other = e.from;
        outgoing = false;
      } else {
        continue;
      }

      // Scan the b_m-ball around v0 in the edge's direction.
      uint32_t best_full = kInfDist;   // nearest full candidate of `other`
      bool label_in_bound = false;     // label-only candidates within bound
      std::vector<NodeId> label_fails;  // label ok, literals fail, within bound
      std::vector<NodeId> full_in_bound;
      auto inspect = [&](NodeId w, uint32_t d) {
        if (w == v0) return;
        const QueryNode& qn = q.node(other);
        if (qn.label != kWildcardSymbol && g.label(w) != qn.label) return;
        if (plans.at(other).Admits(g.view(), w)) {
          best_full = std::min(best_full, d);
          if (d <= e.bound) full_in_bound.push_back(w);
        } else if (d <= e.bound) {
          label_in_bound = true;
          label_fails.push_back(w);
        }
      };
      if (outgoing) {
        bfs.Forward(v0, b_m, inspect);
      } else {
        bfs.Backward(v0, b_m, inspect);
      }

      if (best_full <= e.bound) {
        // Edge is locally satisfiable; look one hop deeper (two-edge paths):
        // does every local candidate w of `other` fail some further edge?
        for (size_t ej : active_edges) {
          if (ej == ei) continue;
          const QueryEdge& e2 = q.edge(ej);
          QNodeId third = kNoQNode;
          bool out2 = true;
          if (e2.from == other) {
            third = e2.to;
            out2 = true;
          } else if (e2.to == other) {
            third = e2.from;
            out2 = false;
          } else {
            continue;
          }
          if (third == focus) continue;
          bool some_w_ok = false;
          uint32_t best_deep = kInfDist;
          size_t inspected = 0;
          for (NodeId w : full_in_bound) {
            if (++inspected > 8) break;  // sampled deep diagnosis
            auto deep = [&](NodeId x, uint32_t d) {
              if (x == w) return;
              if (!plans.at(third).Admits(g.view(), x)) return;
              best_deep = std::min(best_deep, d);
              if (d <= e2.bound) some_w_ok = true;
            };
            if (out2) {
              bfs.Forward(w, b_m, deep);
            } else {
              bfs.Backward(w, b_m, deep);
            }
            if (some_w_ok) break;
          }
          if (some_w_ok) continue;
          if (best_deep != kInfDist && best_deep > e2.bound) {
            Op op;
            op.kind = OpKind::kRxE;
            op.u = e2.from;
            op.v = e2.to;
            op.bound = e2.bound;
            op.new_bound = best_deep;
            out.push_back(op);
          } else {
            Op op;
            op.kind = OpKind::kRmE;
            op.u = e2.from;
            op.v = e2.to;
            op.bound = e2.bound;
            out.push_back(op);
          }
        }
        continue;
      }

      if (best_full != kInfDist && best_full > e.bound) {
        // A candidate exists just out of range: relax the bound minimally.
        Op op;
        op.kind = OpKind::kRxE;
        op.u = e.from;
        op.v = e.to;
        op.bound = e.bound;
        op.new_bound = best_full;
        out.push_back(op);
      }
      if (label_in_bound) {
        // Right label, failing predicates: relax the blocking literals.
        for (const Literal& lit : q.node(other).literals) {
          bool blocks = false;
          std::vector<double> values;
          for (NodeId w : label_fails) {
            if (!match::LiteralHolds(g, w, lit)) {
              blocks = true;
              const Value* val = g.attr(w, lit.attr);
              if (val != nullptr && val->is_num()) values.push_back(val->num());
            }
          }
          if (!blocks) continue;
          std::sort(values.begin(), values.end());
          values.erase(std::unique(values.begin(), values.end()), values.end());
          GenerateRxLForLiteral(other, lit, values, out);
        }
      }
      if (best_full == kInfDist && !label_in_bound) {
        // Nothing matchable in reach: drop the requirement.
        Op op;
        op.kind = OpKind::kRmE;
        op.u = e.from;
        op.v = e.to;
        op.bound = e.bound;
        out.push_back(op);
      }
    }
  };

  std::vector<std::vector<Op>> per_rc(rcs.size());
  const size_t threads = ResolveThreads(ctx.options().num_threads);
  PerThread<BoundedBfs> scratch(
      threads, [&g] { return std::make_unique<BoundedBfs>(g); });
  ParallelFor(threads, 0, rcs.size(), /*grain=*/1, [&](size_t i, size_t slot) {
    diagnose(rcs[i], scratch.at(slot), per_rc[i]);
  });
  for (size_t i = 0; i < rcs.size(); ++i) {
    for (Op& op : per_rc[i]) acc.Add(std::move(op), rcs[i]);
  }

  // Score: p(o) = Σ_{v ∈ R̄C(o)} cl(v, ℰ) / |V_{u_o}| (Lemma 5.2), and keep
  // only operators applicable to the current rewrite.
  std::vector<ScoredOp> ops = acc.Take();
  std::vector<ScoredOp> out;
  const double n = static_cast<double>(ctx.focus_universe().size());
  for (ScoredOp& so : ops) {
    if (!Applicable(so.op, q, b_m)) continue;
    double sum = 0;
    for (NodeId v : so.support) sum += ctx.rep().ClosenessOf(v);
    so.pickiness = n > 0 ? sum / n : 0;
    so.cost = ctx.OpCostOf(so.op);
    out.push_back(std::move(so));
  }
  ctx.stats().ops_generated += out.size();
  return out;
}

}  // namespace wqe
