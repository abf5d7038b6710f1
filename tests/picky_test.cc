#include "chase/picky_refine.h"
#include "chase/picky_relax.h"

#include <gtest/gtest.h>

#include "gen/product_demo.h"

namespace wqe {
namespace {

class PickyFixture : public ::testing::Test {
 protected:
  PickyFixture() {
    opts_.budget = 5;
    ctx_ = std::make_unique<ChaseContext>(demo_.graph(), demo_.Question(), opts_);
  }

  bool HasOpKind(const std::vector<ScoredOp>& ops, OpKind kind) {
    for (const ScoredOp& so : ops) {
      if (so.op.kind == kind) return true;
    }
    return false;
  }

  ProductDemo demo_;
  ChaseOptions opts_;
  std::unique_ptr<ChaseContext> ctx_;
};

TEST_F(PickyFixture, RelaxGeneratesPriceRelaxation) {
  auto ops = GenerateRelaxOps(*ctx_, *ctx_->root());
  ASSERT_FALSE(ops.empty());
  // The price literal blocks P3/P4: an RxL on price must be generated, and
  // its discretized constant is the largest RC price below 840 (795).
  bool found = false;
  for (const ScoredOp& so : ops) {
    if (so.op.kind == OpKind::kRxL &&
        so.op.lit.attr == demo_.graph().schema().LookupAttr("price")) {
      found = true;
      EXPECT_DOUBLE_EQ(so.op.new_lit.constant.num(), 795);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(PickyFixture, RelaxGeneratesSensorEdgeRemoval) {
  // P3 has no sensor within b_m hops: RmE((focus, sensor)) must appear.
  auto ops = GenerateRelaxOps(*ctx_, *ctx_->root());
  bool found = false;
  for (const ScoredOp& so : ops) {
    if (so.op.kind == OpKind::kRmE && so.op.v == 3) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(PickyFixture, RelaxOpsAreApplicableAndCosted) {
  auto ops = GenerateRelaxOps(*ctx_, *ctx_->root());
  for (const ScoredOp& so : ops) {
    EXPECT_TRUE(Applicable(so.op, ctx_->root()->query, opts_.max_bound))
        << so.op.ToString(demo_.graph().schema());
    EXPECT_GE(so.cost, 1.0);
    EXPECT_LE(so.cost, 2.0);
    EXPECT_TRUE(so.op.is_relax());
    EXPECT_FALSE(so.support.empty());
  }
}

// Lemma 5.2: pickiness overestimates the closeness gain.
TEST_F(PickyFixture, PickinessBoundsActualGain) {
  auto ops = GenerateRelaxOps(*ctx_, *ctx_->root());
  for (const ScoredOp& so : ops) {
    PatternQuery q = ctx_->root()->query;
    ASSERT_TRUE(Apply(so.op, &q, opts_.max_bound));
    OpSequence seq;
    seq.Append(so.op);
    auto eval = ctx_->Evaluate(q, seq);
    const double gain = eval->cl - ctx_->root()->cl;
    EXPECT_GE(so.pickiness + 1e-9, gain)
        << so.op.ToString(demo_.graph().schema());
  }
}

TEST_F(PickyFixture, RefineGeneratesDiscountAddL) {
  // From the relaxed query (price removed, sensor edge removed) whose
  // answer includes P1/P2 (IM) and P3/P4/P5 (RM), AddL(Carrier.discount=25)
  // must be generated — the Fig 8 example.
  PatternQuery q = ctx_->root()->query;
  Op rml;
  rml.kind = OpKind::kRmL;
  rml.u = q.focus();
  rml.lit = q.node(q.focus()).literals[0];
  ASSERT_TRUE(Apply(rml, &q, opts_.max_bound));
  Op rme;
  rme.kind = OpKind::kRmE;
  rme.u = q.focus();
  rme.v = 3;
  ASSERT_TRUE(Apply(rme, &q, opts_.max_bound));
  OpSequence seq;
  seq.Append(rml);
  seq.Append(rme);
  auto eval = ctx_->Evaluate(q, seq);
  ASSERT_EQ(eval->rel.im.size(), 3u);  // P1, P2, P6 (all with AT&T)
  ASSERT_EQ(eval->rel.rm.size(), 3u);

  auto ops = GenerateRefineOps(*ctx_, *eval);
  bool found = false;
  for (const ScoredOp& so : ops) {
    if (so.op.kind == OpKind::kAddL && so.op.u == 2 &&
        so.op.lit.attr == demo_.graph().schema().LookupAttr("discount")) {
      found = true;
      // It removes all three irrelevant matches and keeps the relevant ones.
      EXPECT_EQ(so.support.size(), 3u);
      EXPECT_GT(so.pickiness, 0);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(PickyFixture, RefineOpsOnlyWhenIrrelevantMatchesExist) {
  // The original query has RM={P5}, IM={P1,P2}: refinements exist.
  auto ops = GenerateRefineOps(*ctx_, *ctx_->root());
  EXPECT_FALSE(ops.empty());
  for (const ScoredOp& so : ops) {
    EXPECT_TRUE(so.op.is_refine());
    EXPECT_TRUE(Applicable(so.op, ctx_->root()->query, opts_.max_bound));
    EXPECT_FALSE(so.support.empty());  // every kept op removes some IM
  }
}

TEST_F(PickyFixture, RefineGeneratesRfEOnLooseBounds) {
  auto ops = GenerateRefineOps(*ctx_, *ctx_->root());
  // The sensor edge has bound 2 > 1.
  EXPECT_TRUE(HasOpKind(ops, OpKind::kRfE));
}

TEST_F(PickyFixture, WitnessCollectionCapsPerFocus) {
  WitnessSet w =
      CollectWitnesses(*ctx_, ctx_->root()->query, ctx_->root()->key,
                       ctx_->root()->matches);
  ASSERT_EQ(w.focus_nodes.size(), 3u);
  for (const auto& assigns : w.assignments) {
    EXPECT_GE(assigns.size(), 1u);
    EXPECT_LE(assigns.size(), opts_.max_witnesses);
  }
}


// RxE generation: when the missing sensor sits one hop beyond the edge
// bound (but within b_m), GenRx proposes the minimal bound relaxation
// rather than removing the edge.
TEST(PickyRxETest, GeneratesMinimalBoundRelaxation) {
  Graph g;
  NodeId p1 = g.AddNode("Phone", "good");
  g.SetNum(p1, "price", 100);
  NodeId p2 = g.AddNode("Phone", "missing");
  g.SetNum(p2, "price", 100);
  NodeId hub1 = g.AddNode("Hub");
  NodeId hub2 = g.AddNode("Hub");
  NodeId s1 = g.AddNode("Sensor");
  NodeId s2 = g.AddNode("Sensor");
  // p1 reaches its sensor in 2 hops; p2 needs 3.
  g.AddEdge(p1, hub1);
  g.AddEdge(hub1, s1);
  g.AddEdge(p2, hub2);
  NodeId hub3 = g.AddNode("Hub");
  g.AddEdge(hub2, hub3);
  g.AddEdge(hub3, s2);
  g.Finalize();

  PatternQuery q;
  QNodeId phone = q.AddNode(g.schema().LookupLabel("Phone"));
  QNodeId sensor = q.AddNode(g.schema().LookupLabel("Sensor"));
  q.SetFocus(phone);
  q.AddEdge(phone, sensor, 2);

  WhyQuestion w;
  w.query = q;
  std::vector<NodeId> desired = {p2};
  w.exemplar = Exemplar::FromEntities(g, desired);

  ChaseOptions opts;
  opts.budget = 3;
  opts.max_bound = 3;
  ChaseContext ctx(g, w, opts);
  ASSERT_EQ(ctx.root()->rel.rc.size(), 1u);

  auto ops = GenerateRelaxOps(ctx, *ctx.root());
  bool found_rxe = false;
  for (const ScoredOp& so : ops) {
    if (so.op.kind == OpKind::kRxE) {
      found_rxe = true;
      EXPECT_EQ(so.op.bound, 2u);
      EXPECT_EQ(so.op.new_bound, 3u);  // minimal relaxation admitting p2
    }
  }
  EXPECT_TRUE(found_rxe);
}

}  // namespace
}  // namespace wqe
