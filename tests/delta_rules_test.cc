// Differential oracle suite for the literal rules of the delta rule table
// (ChaseContext::Evaluate, DESIGN.md §6): seeded families of AddL/RfL
// siblings per (parent, node) on the four dataset presets and on tiny random
// graphs, at 1 and 4 threads, each child checked against the brute-force
// matcher (tests/reference_matcher.h) and against a full evaluation. The
// projection's state cap and the armed deadline have their own cases.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "chase/eval.h"
#include "common/rng.h"
#include "gen/datasets.h"
#include "gen/synthetic.h"
#include "reference_matcher.h"
#include "workload/why_factory.h"

namespace wqe {
namespace {

uint64_t Counter(ChaseContext& ctx, const std::string& name) {
  return ctx.obs().metrics.counter(name).Value();
}

/// Brute-force answers memoized by fingerprint (families share children
/// across thread counts).
class ReferenceAnswers {
 public:
  explicit ReferenceAnswers(const Graph& g) : reference_(g) {}

  const std::vector<NodeId>& Of(const PatternQuery& q) {
    const std::string fp = q.Fingerprint();
    auto it = memo_.find(fp);
    if (it == memo_.end()) it = memo_.emplace(fp, reference_.Answer(q)).first;
    return it->second;
  }

 private:
  ReferenceMatcher reference_;
  std::map<std::string, std::vector<NodeId>> memo_;
};

/// Up to `n` seeded literal refinements of node `u` of `q`, each applicable
/// to `q` and each giving a distinct child: AddL with an attribute and
/// constant read off a random node of u's label class (kEq, kGe or kLe, so
/// siblings keep different parent matches), and RfL tightening u's numeric
/// one-sided literals to a constant read off such a node.
std::vector<Op> LiteralFamily(const Graph& g, const PatternQuery& q, QNodeId u,
                              Rng& rng, size_t n, uint32_t max_bound) {
  const LabelId label = q.node(u).label;
  const std::span<const NodeId> bucket =
      label == kWildcardSymbol ? std::span<const NodeId>()
                               : g.NodesWithLabel(label);
  std::vector<Op> out;
  std::set<std::string> children;
  for (int attempt = 0; attempt < 200 && out.size() < n; ++attempt) {
    const NodeId x = bucket.empty()
                         ? static_cast<NodeId>(rng.Index(g.num_nodes()))
                         : bucket[rng.Index(bucket.size())];
    const auto attrs = g.attrs(x);
    if (attrs.empty()) continue;
    const AttrPair& cell = attrs[rng.Index(attrs.size())];
    Op op;
    op.u = u;
    bool tightened = false;
    if (cell.value.is_num()) {
      for (const Literal& lit : q.node(u).literals) {
        if (lit.attr != cell.attr || !lit.constant.is_num() ||
            lit.op == CmpOp::kEq || !rng.Chance(0.7)) {
          continue;
        }
        op.kind = OpKind::kRfL;
        op.lit = lit;
        op.new_lit = lit;
        op.new_lit.constant = cell.value;
        tightened = true;
        break;
      }
    }
    if (!tightened) {
      op.kind = OpKind::kAddL;
      op.lit.attr = cell.attr;
      op.lit.constant = cell.value;
      const CmpOp ops[] = {CmpOp::kEq, CmpOp::kGe, CmpOp::kLe};
      op.lit.op = cell.value.is_num() ? ops[rng.Index(3)] : CmpOp::kEq;
    }
    PatternQuery child = q;
    if (!Apply(op, &child, max_bound)) continue;
    // Inactive nodes are not in the fingerprint: tell them apart by op.
    std::string id = child.Fingerprint() + "|" + op.lit.ToString(g.schema()) +
                     "|" + op.new_lit.ToString(g.schema());
    if (!children.insert(std::move(id)).second) continue;
    out.push_back(op);
  }
  return out;
}

/// Tallies over one suite run, for the coverage checks.
struct Coverage {
  size_t children = 0;
  size_t narrowed = 0;  // 0 < |child answer| < |parent answer|
  uint64_t focus_literal = 0;
  uint64_t literal_family = 0;
  uint64_t projection_builds = 0;
  uint64_t inactive_children = 0;
};

/// Evaluates families of `per_family` siblings on the focus, every active
/// non-focus node and one inactive node of `w`'s query as deltas of the
/// root, and checks each child against the oracle and a full evaluation.
void CheckFamilies(const Graph& g, GraphIndexes* indexes, WhyQuestion w,
                   size_t threads, uint64_t seed, size_t per_family,
                   ReferenceAnswers& reference, Coverage& cov) {
  // An isolated extra node: inactive, so it constrains no match.
  const QNodeId inactive = w.query.AddNode(w.query.node(w.query.focus()).label);
  ChaseOptions o;
  o.budget = 3;
  o.num_threads = threads;
  o.use_memo = false;  // an inactive node's child shares the parent's key
  ChaseContext ctx(g, indexes, w, o);
  ChaseContext full_ctx(g, indexes, w, o);
  const EvalResult& parent = *ctx.root();
  const std::vector<bool> active = parent.query.ActiveMask();
  Rng rng(seed);
  for (QNodeId u = 0; u < parent.query.num_nodes(); ++u) {
    if (!active[u] && u != inactive) continue;
    for (const Op& op : LiteralFamily(g, parent.query, u, rng, per_family,
                                      o.max_bound)) {
      PatternQuery child = parent.query;
      ASSERT_TRUE(Apply(op, &child, o.max_bound));
      OpSequence ops;
      ops.Append(op);
      const std::string where = "threads=" + std::to_string(threads) +
                                " seed=" + std::to_string(seed) + " u" +
                                std::to_string(u) + " " +
                                op.ToString(g.schema());
      const auto eval =
          ctx.Evaluate(child, QueryKey::Of(child), ops, &parent, {op});
      EXPECT_EQ(eval->matches, reference.Of(child)) << where;
      const auto full = full_ctx.Evaluate(child, ops);
      EXPECT_EQ(eval->matches, full->matches) << where;
      EXPECT_EQ(eval->cl, full->cl) << where;
      EXPECT_EQ(eval->cl_plus, full->cl_plus) << where;
      EXPECT_EQ(eval->satisfies_exemplar, full->satisfies_exemplar) << where;
      ++cov.children;
      if (!active[u]) ++cov.inactive_children;
      if (!eval->matches.empty() &&
          eval->matches.size() < parent.matches.size()) {
        ++cov.narrowed;
      }
    }
  }
  // Every child was a delta; the context's split of it adds up.
  const ChaseStats& s = ctx.stats();
  EXPECT_EQ(s.delta_full_fallbacks, 0u);
  EXPECT_EQ(s.delta_refine + s.delta_relax + s.delta_focus_literal +
                s.delta_literal_family,
            s.delta_hits);
  EXPECT_EQ(s.delta_focus_literal,
            Counter(ctx, "delta_eval.focus_literal.children"));
  EXPECT_EQ(s.delta_literal_family,
            Counter(ctx, "delta_eval.literal_family.children"));
  EXPECT_EQ(s.delta_refine, Counter(ctx, "delta_eval.refine.children"));
  cov.focus_literal += s.delta_focus_literal;
  cov.literal_family += s.delta_literal_family;
  cov.projection_builds += Counter(ctx, "delta_eval.projection_builds");
}

GraphSpec Preset(int i) {
  switch (i) {
    case 0:
      return ImdbLike(0.04);
    case 1:
      return DbpediaLike(0.04);
    case 2:
      return OffshoreLike(0.04);
    default:
      return WatDivLike(0.04);
  }
}

TEST(DeltaEvalTest, LiteralRulesMatchOracleOnPresets) {
  for (int preset = 0; preset < 4; ++preset) {
    Graph g = GenerateGraph(Preset(preset));
    GraphIndexes indexes(g);
    WhyFactoryOptions fopts;
    fopts.query.num_edges = 2;
    fopts.disturb.num_ops = 2;
    fopts.seed = 29 + static_cast<uint64_t>(preset);
    const std::vector<BenchCase> cases = MakeBenchCases(g, 2, fopts);
    ASSERT_FALSE(cases.empty()) << "preset " << preset;
    ReferenceAnswers reference(g);
    Coverage cov;
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      for (size_t c = 0; c < cases.size(); ++c) {
        CheckFamilies(g, &indexes, cases[c].question, threads,
                      /*seed=*/100 * static_cast<uint64_t>(preset) + c,
                      /*per_family=*/4, reference, cov);
      }
    }
    const std::string where = "preset " + std::to_string(preset);
    EXPECT_GT(cov.focus_literal, 0u) << where;
    EXPECT_GT(cov.literal_family, 0u) << where;
    EXPECT_GT(cov.projection_builds, 0u) << where;
    EXPECT_GT(cov.inactive_children, 0u) << where;
    EXPECT_GT(cov.narrowed, 0u) << where;
  }
}

/// A tiny graph over three labels, so same-label pattern nodes compete for
/// the same graph nodes and injectivity decides matches.
Graph TinyGraph(Rng& rng) {
  Graph g;
  for (size_t i = 0; i < 14; ++i) {
    const NodeId v = g.AddNode("L" + std::to_string(rng.Index(3)));
    g.SetNum(v, "x", static_cast<double>(rng.Int(0, 9)));
    if (rng.Chance(0.6)) g.SetNum(v, "y", static_cast<double>(rng.Int(0, 4)));
  }
  for (size_t e = 0; e < 30; ++e) {
    const NodeId a = static_cast<NodeId>(rng.Index(14));
    const NodeId b = static_cast<NodeId>(rng.Index(14));
    if (a != b) g.AddEdge(a, b);
  }
  g.Finalize();
  return g;
}

TEST(DeltaEvalTest, LiteralRulesMatchOracleOnTinyGraphs) {
  Coverage cov;
  for (const uint64_t seed : {5u, 41u, 77u, 123u, 256u, 999u}) {
    Rng rng(seed);
    Graph g = TinyGraph(rng);
    GraphIndexes indexes(g);
    ReferenceAnswers reference(g);
    // A path focus - u1 - u2 plus a leaf on the focus, all on two labels,
    // with bounds up to 2 so a pattern node can reach back to the focus.
    PatternQuery q;
    const LabelId l0 = g.schema().LookupLabel("L0");
    const LabelId l1 = g.schema().LookupLabel("L1");
    q.AddNode(l0);
    q.AddNode(rng.Chance(0.5) ? l0 : l1);
    q.AddNode(l0);
    q.AddNode(rng.Chance(0.5) ? l0 : l1);
    q.AddEdge(0, 1, static_cast<uint32_t>(rng.Int(1, 2)));
    q.AddEdge(1, 2, static_cast<uint32_t>(rng.Int(1, 2)));
    q.AddEdge(3, 0, static_cast<uint32_t>(rng.Int(1, 2)));
    q.SetFocus(0);
    WhyQuestion w;
    w.query = q;
    const std::vector<NodeId> entities = {0, 1};
    w.exemplar = Exemplar::FromEntities(g, entities);
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      CheckFamilies(g, &indexes, w, threads, seed, /*per_family=*/6,
                    reference, cov);
    }
  }
  EXPECT_GT(cov.literal_family, 0u);
  EXPECT_GT(cov.projection_builds, 0u);
  EXPECT_GT(cov.narrowed, 0u);
}

TEST(DeltaEvalTest, ProjectionPastTheStateCapFallsBackExactly) {
  // A 24-clique on one label: every parent match has 23 × 22 partial
  // valuations before the projected node, far past the per-match cap.
  Graph g;
  for (int i = 0; i < 24; ++i) {
    const NodeId v = g.AddNode("A");
    g.SetNum(v, "x", static_cast<double>(i % 6));
  }
  for (NodeId a = 0; a < 24; ++a) {
    for (NodeId b = 0; b < 24; ++b) {
      if (a != b) g.AddEdge(a, b);
    }
  }
  g.Finalize();
  const LabelId label = g.schema().LookupLabel("A");
  const AttrId x = g.schema().LookupAttr("x");
  PatternQuery q;
  for (int i = 0; i < 4; ++i) q.AddNode(label);
  q.AddEdge(0, 1, 1);
  q.AddEdge(0, 2, 1);
  q.AddEdge(0, 3, 1);
  q.AddLiteral(0, {x, CmpOp::kLe, Value::Num(1)});
  q.SetFocus(0);
  WhyQuestion w;
  w.query = q;
  const std::vector<NodeId> entities = {0, 1};
  w.exemplar = Exemplar::FromEntities(g, entities);

  ReferenceAnswers reference(g);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    ChaseOptions o;
    o.num_threads = threads;
    ChaseContext ctx(g, w, o);
    const EvalResult& parent = *ctx.root();
    ASSERT_FALSE(parent.matches.empty());
    for (int c = 0; c < 6; ++c) {
      Op op;
      op.kind = OpKind::kAddL;
      op.u = 3;
      op.lit = {x, CmpOp::kEq, Value::Num(c)};
      PatternQuery child = q;
      ASSERT_TRUE(Apply(op, &child, o.max_bound));
      OpSequence ops;
      ops.Append(op);
      const auto eval =
          ctx.Evaluate(child, QueryKey::Of(child), ops, &parent, {op});
      EXPECT_EQ(eval->matches, reference.Of(child))
          << "threads=" << threads << " x=" << c;
    }
    EXPECT_EQ(ctx.stats().delta_literal_family, 6u);
    EXPECT_EQ(Counter(ctx, "delta_eval.projection_builds"), 1u);
    // Every parent match passed the cap: each was verified per child.
    EXPECT_EQ(Counter(ctx, "delta_eval.projection_fallbacks"),
              parent.matches.size());
    EXPECT_GT(Counter(ctx, "match.projection_states"), 0u);
  }
}

TEST(DeltaEvalTest, ExpiredDeadlineStopsAFamilysSecondChild) {
  Graph g = GenerateGraph(ImdbLike(0.04));
  WhyFactoryOptions fopts;
  fopts.query.num_edges = 2;
  fopts.disturb.num_ops = 2;
  fopts.seed = 31;
  const std::vector<BenchCase> cases = MakeBenchCases(g, 3, fopts);
  ASSERT_FALSE(cases.empty());
  ReferenceAnswers reference(g);
  size_t checked = 0;
  for (const BenchCase& c : cases) {
    ChaseOptions o;
    o.use_memo = false;
    ChaseContext ctx(g, c.question, o);
    const EvalResult& parent = *ctx.root();
    if (parent.matches.empty()) continue;
    const std::vector<bool> active = parent.query.ActiveMask();
    QNodeId u = 0;
    while (u < parent.query.num_nodes() &&
           (u == parent.query.focus() || !active[u])) {
      ++u;
    }
    ASSERT_LT(u, parent.query.num_nodes());
    Rng rng(7);
    const std::vector<Op> family =
        LiteralFamily(g, parent.query, u, rng, 2, o.max_bound);
    if (family.size() < 2) continue;
    auto evaluate = [&](const Op& op) {
      PatternQuery child = parent.query;
      EXPECT_TRUE(Apply(op, &child, o.max_bound));
      OpSequence ops;
      ops.Append(op);
      return ctx.Evaluate(child, QueryKey::Of(child), ops, &parent, {op});
    };
    // The first child takes the refine rule; the second builds P_u, and its
    // projection search stops at the armed, already expired deadline.
    evaluate(family[0]);
    const Deadline expired = Deadline::After(-1);
    ctx.star_matcher().set_deadline(&expired);
    EXPECT_THROW(evaluate(family[1]), DeadlineExceeded);
    ctx.star_matcher().set_deadline(nullptr);
    EXPECT_EQ(Counter(ctx, "delta_eval.projection_builds"), 0u);
    // Nothing partial was kept: disarmed, the same child builds P_u afresh.
    PatternQuery child = parent.query;
    ASSERT_TRUE(Apply(family[1], &child, o.max_bound));
    EXPECT_EQ(evaluate(family[1])->matches, reference.Of(child));
    EXPECT_EQ(Counter(ctx, "delta_eval.projection_builds"), 1u);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace wqe
