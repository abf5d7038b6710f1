#include "chase/eval.h"

#include <gtest/gtest.h>

#include <functional>

#include "chase/next_op.h"
#include "gen/product_demo.h"
#include "reference_matcher.h"

namespace wqe {
namespace {

class EvalFixture : public ::testing::Test {
 protected:
  EvalFixture() {
    opts_.budget = 4;
    ctx_ = std::make_unique<ChaseContext>(demo_.graph(), demo_.Question(), opts_);
  }

  ProductDemo demo_;
  ChaseOptions opts_;
  std::unique_ptr<ChaseContext> ctx_;
};

TEST_F(EvalFixture, RootEvaluatesOriginalQuery) {
  const auto& root = ctx_->root();
  EXPECT_EQ(root->matches.size(), 3u);
  EXPECT_DOUBLE_EQ(root->cost, 0.0);
  EXPECT_FALSE(root->refined);
  EXPECT_TRUE(root->ops.empty());
}

TEST_F(EvalFixture, UniverseIsFocusLabelClass) {
  EXPECT_EQ(ctx_->focus_universe().size(), 6u);  // six cellphones
}

TEST_F(EvalFixture, RepAndClStarMatchPaperExample) {
  EXPECT_EQ(ctx_->rep().nodes.size(), 3u);
  EXPECT_NEAR(ctx_->cl_star(), 0.5, 1e-9);
}

TEST_F(EvalFixture, RootClosenessMatchesHandComputation) {
  // RM = {P5} (cl 1), IM = {P1, P2}: (1 - 2) / 6.
  EXPECT_NEAR(ctx_->root()->cl, -1.0 / 6.0, 1e-9);
  EXPECT_NEAR(ctx_->root()->cl_plus, 1.0 / 6.0, 1e-9);
  EXPECT_FALSE(ctx_->root()->satisfies_exemplar);
}

TEST_F(EvalFixture, MemoizationAvoidsReEvaluation) {
  const uint64_t evals_before = ctx_->stats().evaluations;
  ctx_->Evaluate(ctx_->root()->query, OpSequence());
  EXPECT_EQ(ctx_->stats().evaluations, evals_before);
  EXPECT_GT(ctx_->stats().memo_hits, 0u);
}

TEST_F(EvalFixture, MemoDisabledReEvaluates) {
  ChaseOptions no_memo = opts_;
  no_memo.use_memo = false;
  ChaseContext ctx(demo_.graph(), demo_.Question(), no_memo);
  const uint64_t evals_before = ctx.stats().evaluations;
  ctx.Evaluate(ctx.root()->query, OpSequence());
  EXPECT_EQ(ctx.stats().evaluations, evals_before + 1);
}

TEST_F(EvalFixture, CostComputedFromOps) {
  const Schema& schema = demo_.graph().schema();
  PatternQuery q = ctx_->root()->query;
  Op rml;
  rml.kind = OpKind::kRmL;
  rml.u = 0;
  rml.lit = {schema.LookupAttr("price"), CmpOp::kGe, Value::Num(840)};
  ASSERT_TRUE(Apply(rml, &q, opts_.max_bound));
  OpSequence ops;
  ops.Append(rml);
  auto eval = ctx_->Evaluate(q, ops);
  EXPECT_NEAR(eval->cost, 1.0, 1e-9);
  EXPECT_FALSE(eval->refined);
}

TEST_F(EvalFixture, RefinedFlagSetByRefinementOps) {
  const Schema& schema = demo_.graph().schema();
  PatternQuery q = ctx_->root()->query;
  Op addl;
  addl.kind = OpKind::kAddL;
  addl.u = 2;
  addl.lit = {schema.LookupAttr("discount"), CmpOp::kEq, Value::Num(25)};
  ASSERT_TRUE(Apply(addl, &q, opts_.max_bound));
  OpSequence ops;
  ops.Append(addl);
  EXPECT_TRUE(ctx_->Evaluate(q, ops)->refined);
}

TEST_F(EvalFixture, BorrowedIndexesShareAcrossContexts) {
  GraphIndexes indexes(demo_.graph());
  ChaseContext a(demo_.graph(), &indexes, demo_.Question(), opts_);
  ChaseContext b(demo_.graph(), &indexes, demo_.Question(), opts_);
  EXPECT_EQ(&a.adom(), &b.adom());
  EXPECT_EQ(a.diameter(), b.diameter());
  EXPECT_EQ(a.root()->matches, b.root()->matches);
}

TEST_F(EvalFixture, TimeLimitArmsFreshDeadlinePerContext) {
  ChaseOptions limited = opts_;
  limited.time_limit_seconds = 60.0;
  ChaseContext ctx(demo_.graph(), demo_.Question(), limited);
  EXPECT_FALSE(ctx.options().deadline.Expired());
}

// ---- NextOp condition gating (Fig 7 / §5.4).

TEST_F(EvalFixture, NextOpGeneratesBothPhasesAtRoot) {
  ChaseNode node;
  node.eval = ctx_->root();
  GenerateOps(*ctx_, node, /*best_cl=*/-1e18, 0, nullptr);
  bool has_relax = false, has_refine = false;
  while (const ScoredOp* so = node.Poll()) {
    has_relax |= so->op.is_relax();
    has_refine |= so->op.is_refine();
  }
  EXPECT_TRUE(has_relax);   // RelaxCond: cl+ < cl*, not refined
  EXPECT_TRUE(has_refine);  // RefineCond: IM nonempty
}

TEST_F(EvalFixture, RefinedNodeNeverRelaxes) {
  const Schema& schema = demo_.graph().schema();
  PatternQuery q = ctx_->root()->query;
  Op addl;
  addl.kind = OpKind::kAddL;
  addl.u = 0;
  addl.lit = {schema.LookupAttr("ram"), CmpOp::kGe, Value::Num(4)};
  ASSERT_TRUE(Apply(addl, &q, opts_.max_bound));
  OpSequence ops;
  ops.Append(addl);
  auto eval = ctx_->Evaluate(q, ops);
  ASSERT_TRUE(eval->refined);

  ChaseNode node;
  node.eval = eval;
  GenerateOps(*ctx_, node, /*best_cl=*/-1e18, 0, nullptr);
  while (const ScoredOp* so = node.Poll()) {
    EXPECT_TRUE(so->op.is_refine()) << so->op.ToString(schema);
  }
}

TEST_F(EvalFixture, RefineCondBlockedWhenBoundCannotBeat) {
  // With pruning on and an incumbent at the node's cl+, refinement ops are
  // not generated.
  ChaseNode node;
  node.eval = ctx_->root();
  GenerateOps(*ctx_, node, /*best_cl=*/ctx_->root()->cl_plus, 0, nullptr);
  while (const ScoredOp* so = node.Poll()) {
    EXPECT_TRUE(so->op.is_relax());
  }
}

TEST_F(EvalFixture, BudgetFiltersExpensiveOps) {
  ChaseOptions tiny = opts_;
  tiny.budget = 0.5;  // below every unit cost
  ChaseContext ctx(demo_.graph(), demo_.Question(), tiny);
  ChaseNode node;
  node.eval = ctx.root();
  GenerateOps(ctx, node, -1e18, 0, nullptr);
  EXPECT_TRUE(node.exhausted());
}

TEST_F(EvalFixture, PerClassCapLimitsOpsPerKind) {
  ChaseNode node;
  node.eval = ctx_->root();
  GenerateOps(*ctx_, node, -1e18, /*per_class_cap=*/1, nullptr);
  std::map<OpKind, int> counts;
  while (const ScoredOp* so = node.Poll()) ++counts[so->op.kind];
  for (const auto& [kind, count] : counts) {
    EXPECT_LE(count, 1) << OpKindName(kind);
  }
}

TEST_F(EvalFixture, QueueSortedByPickiness) {
  ChaseNode node;
  node.eval = ctx_->root();
  GenerateOps(*ctx_, node, -1e18, 0, nullptr);
  for (size_t i = 1; i < node.queue.size(); ++i) {
    EXPECT_GE(node.queue[i - 1].pickiness + 1e-12, node.queue[i].pickiness);
  }
}

// ---- Exact literal keys: constants that agree to six decimals are still
// different rewrites for the match memo, plan memo, ball memo and star views.

TEST(ExactLiteralKeyTest, CloseConstantsKeepTheirOwnAnswersInOneContext) {
  Graph g;
  const NodeId close = g.AddNode("Item", "close");
  g.SetNum(close, "x", 5.0000004);
  const NodeId high = g.AddNode("Item", "high");
  g.SetNum(high, "x", 6);
  const NodeId low = g.AddNode("Item", "low");
  g.SetNum(low, "x", 4);
  const NodeId s1 = g.AddNode("Shop", "s1");
  const NodeId s2 = g.AddNode("Shop", "s2");
  g.AddEdge(s1, close, kWildcardSymbol);
  g.AddEdge(s2, high, kWildcardSymbol);
  g.AddEdge(s2, low, kWildcardSymbol);
  g.Finalize();
  const AttrId x = g.schema().LookupAttr("x");

  // Focus Item(x >= c) under a Shop, and focus Shop over an Item(x >= c):
  // the literal sits on the focus in one shape and on a ball step in the
  // other.
  auto item_focus = [&](double c) {
    PatternQuery q;
    const QNodeId item = q.AddNode(g.schema().LookupLabel("Item"));
    const QNodeId shop = q.AddNode(g.schema().LookupLabel("Shop"));
    q.AddEdge(shop, item);
    q.AddLiteral(item, {x, CmpOp::kGe, Value::Num(c)});
    q.SetFocus(item);
    return q;
  };
  auto shop_focus = [&](double c) {
    PatternQuery q = item_focus(c);
    q.SetFocus(1);
    return q;
  };
  EXPECT_NE(item_focus(5.0000003).Fingerprint(),
            item_focus(5.0000005).Fingerprint());

  // One context per focus shape: a context evaluates rewrites of its own
  // question's focus only.
  ReferenceMatcher reference(g);
  const std::vector<std::function<PatternQuery(double)>> shapes = {
      item_focus, shop_focus};
  for (const auto& shape : shapes) {
    ChaseContext ctx(g, WhyQuestion{shape(5.0000003), Exemplar()},
                     ChaseOptions());
    for (int round = 0; round < 2; ++round) {
      for (const PatternQuery& q : {shape(5.0000003), shape(5.0000005)}) {
        EXPECT_EQ(ctx.Evaluate(q, OpSequence())->matches, reference.Answer(q))
            << q.Fingerprint();
      }
    }
  }
  EXPECT_EQ(reference.Answer(item_focus(5.0000005)),
            (std::vector<NodeId>{high}));
  EXPECT_EQ(reference.Answer(shop_focus(5.0000003)),
            (std::vector<NodeId>{s1, s2}));
}

// A rewrite whose focus label differs from the question's has its matches
// outside V_{u_o}; every build type refuses it instead of classifying them.
TEST(FocusLabelDeathTest, EvaluateRefusesAnotherFocusLabel) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ProductDemo demo;
  ChaseContext ctx(demo.graph(), demo.Question(), ChaseOptions());
  PatternQuery other = demo.Query();
  const LabelId focus_label = other.node(other.focus()).label;
  for (QNodeId u = 0; u < other.num_nodes(); ++u) {
    if (other.node(u).label != focus_label) {
      other.SetFocus(u);
      break;
    }
  }
  ASSERT_NE(other.node(other.focus()).label, focus_label);
  Op relax;
  relax.kind = OpKind::kRmE;
  relax.u = other.edge(0).from;
  relax.v = other.edge(0).to;
  EXPECT_DEATH(ctx.Evaluate(other, OpSequence()), "focus label");
  EXPECT_DEATH(ctx.Evaluate(other, QueryKey::Of(other), OpSequence(),
                            ctx.root().get(), {relax}),
               "focus label");
  EXPECT_DEATH(ctx.EvaluateBaseline(other, OpSequence(), 0), "focus label");
  // The question's own focus label passes.
  EXPECT_EQ(ctx.Evaluate(demo.Query(), OpSequence())->matches,
            ctx.root()->matches);
}

// Classify merges V_{u_o} with sorted match sets, so the universe must be
// ascending whether it is a label bucket or every node (wildcard focus).
// Labels interleave here, so a bucket is not a contiguous id range.
TEST(FocusUniverseTest, AscendingForLabelBucketAndWildcardFocus) {
  Graph g;
  for (int i = 0; i < 12; ++i) g.AddNode(i % 3 == 0 ? "A" : "B");
  for (NodeId v = 0; v + 1 < 12; ++v) g.AddEdge(v, v + 1);
  g.Finalize();
  const LabelId a = g.schema().LookupLabel("A");
  for (LabelId focus_label : {a, kWildcardSymbol}) {
    WhyQuestion w;
    const QNodeId focus = w.query.AddNode(focus_label);
    w.query.AddEdge(focus, w.query.AddNode(kWildcardSymbol), 1);
    w.query.SetFocus(focus);
    const ChaseContext ctx(g, w, ChaseOptions());
    const std::vector<NodeId>& universe = ctx.focus_universe();
    EXPECT_EQ(universe.size(), focus_label == a ? 4u : g.num_nodes());
    EXPECT_TRUE(std::adjacent_find(universe.begin(), universe.end(),
                                   std::greater_equal<NodeId>()) ==
                universe.end())
        << "label=" << focus_label;
  }
}

}  // namespace
}  // namespace wqe
