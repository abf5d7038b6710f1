#include "chase/picky_refine.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "common/thread_pool.h"
#include "match/filter_plan.h"

namespace wqe {

namespace {

// ĪM(o) / R̲M(o) estimation: a focus match survives the refinement iff some
// sampled witness valuation still satisfies the new condition.
struct RemovalEstimate {
  std::vector<NodeId> im_removed;
  double rm_removed_closeness = 0;
};

/// Survival predicate for one candidate refinement: does `assign` still
/// satisfy the new condition? `bfs` is caller-owned scratch so estimates can
/// run concurrently against the shared frozen distance index.
using SatisfiesFn =
    std::function<bool(const std::vector<NodeId>& assign, BoundedBfs& bfs)>;

RemovalEstimate EstimateRemoval(const ChaseContext& ctx, const WitnessSet& rm_w,
                                const WitnessSet& im_w,
                                const SatisfiesFn& satisfies, BoundedBfs& bfs) {
  RemovalEstimate est;
  for (size_t i = 0; i < im_w.focus_nodes.size(); ++i) {
    bool survives = false;
    for (const auto& assign : im_w.assignments[i]) {
      if (satisfies(assign, bfs)) {
        survives = true;
        break;
      }
    }
    if (!survives) est.im_removed.push_back(im_w.focus_nodes[i]);
  }
  for (size_t i = 0; i < rm_w.focus_nodes.size(); ++i) {
    bool survives = false;
    for (const auto& assign : rm_w.assignments[i]) {
      if (satisfies(assign, bfs)) {
        survives = true;
        break;
      }
    }
    if (!survives) {
      est.rm_removed_closeness += ctx.rep().ClosenessOf(rm_w.focus_nodes[i]);
    }
  }
  return est;
}

/// A candidate refinement whose ĪM/R̲M estimate has not run yet. Candidates
/// are enumerated serially (cheap), estimated in parallel into
/// index-addressed slots, and folded in enumeration order.
struct PendingOp {
  Op op;
  bool require_removal = true;  // drop unless some IM match is removed
  SatisfiesFn satisfies;
};

constexpr size_t kMaxValuesPerNode = 12;
constexpr size_t kMaxRefineConstants = 8;
constexpr size_t kMaxNewNodeLabels = 10;

}  // namespace

WitnessSet CollectWitnesses(ChaseContext& ctx, const PatternQuery& q,
                            const QueryKey& key,
                            const std::vector<NodeId>& focus_nodes) {
  WitnessSet set;
  const size_t cap = ctx.options().max_witnesses;

  // Per-node valuation enumeration is independent; shard it over the
  // context matcher's workers into index-addressed slots and fold in
  // focus-node order.
  std::vector<std::vector<std::vector<NodeId>>> assigns(focus_nodes.size());
  ctx.star_matcher().matcher().ShardProbes(
      ctx.options().num_threads, focus_nodes.size(), /*grain=*/2,
      [&](Matcher& m, size_t i) {
        m.Valuations(q, key, focus_nodes[i], cap,
                     [&](const std::vector<NodeId>& assign) {
                       assigns[i].push_back(assign);
                       return true;
                     });
      });
  for (size_t i = 0; i < focus_nodes.size(); ++i) {
    if (assigns[i].empty()) continue;
    set.focus_nodes.push_back(focus_nodes[i]);
    set.assignments.push_back(std::move(assigns[i]));
  }
  return set;
}

std::vector<ScoredOp> GenerateRefineOps(ChaseContext& ctx, const EvalResult& cur) {
  const Graph& g = ctx.graph();
  const PatternQuery& q = cur.query;
  const QNodeId focus = q.focus();
  const uint32_t b_m = ctx.options().max_bound;
  const double lambda = ctx.options().closeness.lambda;
  const double n = static_cast<double>(ctx.focus_universe().size());

  std::vector<NodeId> rm = cur.rel.rm;
  std::vector<NodeId> im = cur.rel.im;
  const size_t cap = ctx.options().max_diagnosed_nodes;
  if (rm.size() > cap) rm.resize(cap);
  if (im.size() > cap) im.resize(cap);

  WitnessSet rm_w = CollectWitnesses(ctx, q, cur.key, rm);
  WitnessSet im_w = CollectWitnesses(ctx, q, cur.key, im);

  std::vector<ScoredOp> out;
  auto push = [&](Op op, RemovalEstimate est) {
    if (!Applicable(op, q, b_m)) return;
    ScoredOp so;
    so.op = std::move(op);
    so.pickiness =
        n > 0 ? (lambda * static_cast<double>(est.im_removed.size()) -
                 est.rm_removed_closeness) /
                    n
              : 0;
    so.cost = ctx.OpCostOf(so.op);
    so.support = std::move(est.im_removed);
    out.push_back(std::move(so));
  };

  const auto active = q.ActiveNodes();
  const auto active_edges = q.ActiveEdges();
  DistanceIndex& dist = ctx.dist();

  // Candidate ops are enumerated serially below; their witness-survival
  // estimates (the expensive part) run in parallel afterwards.
  std::vector<PendingOp> pending;

  // ---- AddL: attribute values carried by RM witnesses, absent from F_Q(u).
  for (QNodeId u : active) {
    std::set<std::pair<AttrId, Value>> values;
    for (const auto& assigns : rm_w.assignments) {
      for (const auto& assign : assigns) {
        const NodeId w = assign[u];
        if (w == kInvalidNode) continue;
        for (const AttrPair& pair : g.attrs(w)) {
          bool constrained = false;
          for (const Literal& l : q.node(u).literals) {
            if (l.attr == pair.attr) constrained = true;
          }
          if (!constrained) values.insert({pair.attr, pair.value});
        }
      }
    }
    size_t taken = 0;
    for (const auto& [attr, value] : values) {
      if (++taken > kMaxValuesPerNode) break;
      Literal lit{attr, CmpOp::kEq, value};
      Op op;
      op.kind = OpKind::kAddL;
      op.u = u;
      op.lit = lit;
      pending.push_back(
          {std::move(op), /*require_removal=*/true,
           [&g, u, lit](const std::vector<NodeId>& assign, BoundedBfs&) {
             return assign[u] != kInvalidNode &&
                    match::LiteralHolds(g, assign[u], lit);
           }});
    }
  }

  // ---- RfL: tighten existing literals toward RM witness values.
  for (QNodeId u : active) {
    for (const Literal& lit : q.node(u).literals) {
      std::set<double> constants;
      for (const auto& assigns : rm_w.assignments) {
        for (const auto& assign : assigns) {
          const NodeId w = assign[u];
          if (w == kInvalidNode) continue;
          const Value* val = g.attr(w, lit.attr);
          if (val != nullptr && val->is_num()) constants.insert(val->num());
        }
      }
      size_t taken = 0;
      for (double a : constants) {
        if (++taken > kMaxRefineConstants) break;
        Literal refined = lit;
        if (lit.is_wildcard()) {
          // Rule (1): resolve "A exists" to a concrete bound on a.
          refined.constant = Value::Num(a);
        } else if (!lit.constant.is_num()) {
          continue;  // categorical domains are enumerated by AddL instead.
        } else {
          switch (lit.op) {
            case CmpOp::kLe:
            case CmpOp::kLt:
              if (a >= lit.constant.num()) continue;
              refined.constant = Value::Num(a);
              break;
            case CmpOp::kGe:
            case CmpOp::kGt:
              if (a <= lit.constant.num()) continue;
              refined.constant = Value::Num(a);
              break;
            case CmpOp::kEq:
              continue;  // =c -> =a is not answer-monotone; skipped.
          }
        }
        Op op;
        op.kind = OpKind::kRfL;
        op.u = u;
        op.lit = lit;
        op.new_lit = refined;
        pending.push_back(
            {std::move(op), /*require_removal=*/true,
             [&g, u, refined](const std::vector<NodeId>& assign, BoundedBfs&) {
               return assign[u] != kInvalidNode &&
                      match::LiteralHolds(g, assign[u], refined);
             }});
      }
    }
  }

  // ---- RfE: decrement every bound > 1 (GenRf introduces these
  // unconditionally; pickiness ranks them).
  for (size_t ei : active_edges) {
    const QueryEdge& e = q.edge(ei);
    if (e.bound <= 1) continue;
    const uint32_t nb = e.bound - 1;
    Op op;
    op.kind = OpKind::kRfE;
    op.u = e.from;
    op.v = e.to;
    op.bound = e.bound;
    op.new_bound = nb;
    pending.push_back(
        {std::move(op), /*require_removal=*/false,
         [&dist, from = e.from, to = e.to, nb](
             const std::vector<NodeId>& assign, BoundedBfs& bfs) {
           const NodeId a = assign[from], b = assign[to];
           if (a == kInvalidNode || b == kInvalidNode) return false;
           return dist.Distance(a, b, nb, bfs) != kInfDist;
         }});
  }

  // ---- AddE form 1: connect the focus to a non-adjacent pattern node with
  // the loosest bound every RM witness still satisfies.
  for (QNodeId u : active) {
    if (u == focus || q.HasEdgeEitherDirection(focus, u)) continue;
    for (const bool focus_to_u : {true, false}) {
      uint32_t k = 0;
      bool all_rm_reachable = !rm_w.focus_nodes.empty();
      for (const auto& assigns : rm_w.assignments) {
        uint32_t best = kInfDist;
        for (const auto& assign : assigns) {
          const NodeId a = focus_to_u ? assign[focus] : assign[u];
          const NodeId b = focus_to_u ? assign[u] : assign[focus];
          if (a == kInvalidNode || b == kInvalidNode) continue;
          best = std::min(best, ctx.dist().Distance(a, b, b_m));
        }
        if (best == kInfDist) {
          all_rm_reachable = false;
          break;
        }
        k = std::max(k, best);
      }
      if (!all_rm_reachable || k == 0 || k > b_m) continue;
      Op op;
      op.kind = OpKind::kAddE;
      op.u = focus_to_u ? focus : u;
      op.v = focus_to_u ? u : focus;
      op.new_bound = k;
      pending.push_back(
          {std::move(op), /*require_removal=*/true,
           [&dist, focus, u, focus_to_u, k](
               const std::vector<NodeId>& assign, BoundedBfs& bfs) {
             const NodeId a = focus_to_u ? assign[focus] : assign[u];
             const NodeId b = focus_to_u ? assign[u] : assign[focus];
             if (a == kInvalidNode || b == kInvalidNode) return false;
             return dist.Distance(a, b, k, bfs) != kInfDist;
           }});
    }
  }

  // ---- AddE form 2: a fresh pattern node labeled like a neighbor common to
  // every RM match (the Fig 8 "Discount" pattern works this way when the
  // carrier node is absent from Q).
  {
    std::map<LabelId, size_t> label_rm_count;
    for (NodeId v : rm_w.focus_nodes) {
      std::set<LabelId> seen;
      for (NodeId w : g.out(v)) seen.insert(g.label(w));
      for (LabelId l : seen) ++label_rm_count[l];
    }
    std::vector<std::pair<LabelId, size_t>> labels(label_rm_count.begin(),
                                                   label_rm_count.end());
    std::sort(labels.begin(), labels.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    size_t taken = 0;
    for (const auto& [label, count] : labels) {
      // Require the label near most relevant matches; the pickiness score
      // p'(o) arbitrates the removed-RM / removed-IM trade-off beyond that.
      if (count * 2 < rm_w.focus_nodes.size()) break;
      if (++taken > kMaxNewNodeLabels) break;
      Op op;
      op.kind = OpKind::kAddE;
      op.u = focus;
      op.creates_node = true;
      op.new_node_label = label;
      op.new_bound = 1;
      pending.push_back(
          {std::move(op), /*require_removal=*/true,
           [&g, focus, lbl = label](const std::vector<NodeId>& assign,
                                    BoundedBfs&) {
             const NodeId f = assign[focus];
             if (f == kInvalidNode) return false;
             for (NodeId w : g.out(f)) {
               if (g.label(w) == lbl) return true;
             }
             return false;
           }});
    }
  }

  // Run the estimates — each reads only frozen witness sets, the graph, and
  // the distance index (with private BFS scratch) — then fold verdicts in
  // enumeration order so the scored list matches the serial path exactly.
  std::vector<RemovalEstimate> ests(pending.size());
  const size_t threads = ResolveThreads(ctx.options().num_threads);
  PerThread<BoundedBfs> scratch(
      threads, [&g] { return std::make_unique<BoundedBfs>(g); });
  ParallelFor(threads, 0, pending.size(), /*grain=*/1,
              [&](size_t i, size_t slot) {
                ests[i] = EstimateRemoval(ctx, rm_w, im_w,
                                          pending[i].satisfies,
                                          scratch.at(slot));
              });
  for (size_t i = 0; i < pending.size(); ++i) {
    if (pending[i].require_removal && ests[i].im_removed.empty()) continue;
    push(std::move(pending[i].op), std::move(ests[i]));
  }

  ctx.stats().ops_generated += out.size();
  return out;
}

}  // namespace wqe
