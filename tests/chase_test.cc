#include "chase/chase.h"

#include <gtest/gtest.h>

#include "chase/solve.h"
#include "gen/product_demo.h"

namespace wqe {
namespace {

class ChaseFixture : public ::testing::Test {
 protected:
  ChaseFixture() {
    opts_.budget = 4;
    opts_.use_pruning = false;  // formal semantics: no search shortcuts
    ctx_ = std::make_unique<ChaseContext>(demo_.graph(), demo_.Question(), opts_);
    chase_ = std::make_unique<QChase>(*ctx_);
  }

  Op PriceRelax() const {
    const Schema& schema = demo_.graph().schema();
    Op op;
    op.kind = OpKind::kRxL;
    op.u = 0;
    op.lit = {schema.LookupAttr("price"), CmpOp::kGe, Value::Num(840)};
    op.new_lit = {schema.LookupAttr("price"), CmpOp::kGe, Value::Num(790)};
    return op;
  }

  Op SensorRemove() const {
    Op op;
    op.kind = OpKind::kRmE;
    op.u = 0;
    op.v = 3;
    op.bound = 2;
    return op;
  }

  Op DiscountAdd() const {
    const Schema& schema = demo_.graph().schema();
    Op op;
    op.kind = OpKind::kAddL;
    op.u = 2;
    op.lit = {schema.LookupAttr("discount"), CmpOp::kEq, Value::Num(25)};
    return op;
  }

  ProductDemo demo_;
  ChaseOptions opts_;
  std::unique_ptr<ChaseContext> ctx_;
  std::unique_ptr<QChase> chase_;
};

TEST_F(ChaseFixture, InitialStateHasEmptySubExemplar) {
  ChaseState s = chase_->Initial();
  EXPECT_EQ(s.matches.size(), 3u);  // {P1, P2, P5}
  for (bool t : s.tuples_enforced) EXPECT_FALSE(t);
  for (bool c : s.constraints_enforced) EXPECT_FALSE(c);
  EXPECT_DOUBLE_EQ(s.cost, 0.0);
}

TEST_F(ChaseFixture, NoOpStepEnforcesAlreadySatisfiedTuples) {
  // Q(G) already contains P5 ~ t1 and P2 ~ t2 (vsim checks the tuple cells
  // only), so the ∅-step pulls both tuples into 𝒯₁; the price constraint
  // c1, however, has no satisfying t2-match in the answer (P2 costs 950).
  ChaseState s = chase_->Initial();
  auto next = chase_->Step(s, Op{});
  ASSERT_TRUE(next.has_value());
  EXPECT_TRUE(next->tuples_enforced[0]);  // t1 covered by P5
  EXPECT_TRUE(next->tuples_enforced[1]);  // t2 covered by P2
}

TEST_F(ChaseFixture, RelaxationStepGrowsMatchesAndExemplar) {
  // Example 4.2: relaxing the price admits P4 (a t2 match), enforcing t2
  // and the price constraint c1.
  ChaseState s = chase_->Initial();
  auto next = chase_->Step(s, PriceRelax());
  ASSERT_TRUE(next.has_value());
  EXPECT_GT(next->matches.size(), s.matches.size());
  EXPECT_TRUE(next->tuples_enforced[1]);
  EXPECT_TRUE(next->constraints_enforced[0]);
  EXPECT_GT(next->cost, 1.0);
}

TEST_F(ChaseFixture, InapplicableOperatorIsInvalidStep) {
  ChaseState s = chase_->Initial();
  Op bogus;
  bogus.kind = OpKind::kRmE;
  bogus.u = 1;
  bogus.v = 2;  // no such edge
  EXPECT_FALSE(chase_->Step(s, bogus).has_value());
}

TEST_F(ChaseFixture, RefinementCannotBreakAccumulatedExemplar) {
  // Enforce t1 via the ∅-step, then refine so hard that no t1 match
  // remains: the step must be invalid.
  ChaseState s = *chase_->Step(chase_->Initial(), Op{});
  ASSERT_TRUE(s.tuples_enforced[0]);
  const Schema& schema = demo_.graph().schema();
  Op kill;
  kill.kind = OpKind::kAddL;
  kill.u = 0;
  kill.lit = {schema.LookupAttr("price"), CmpOp::kGe, Value::Num(2000)};
  // Applying removes all matches -> 𝒯 coverage of t1 lost -> invalid.
  EXPECT_FALSE(chase_->Step(s, kill).has_value());
}

TEST_F(ChaseFixture, FullPaperSequenceReachesAnswer) {
  // ⟨o3 (price), o2 (sensor), o1 (discount)⟩ — a normal-form canonical
  // sequence reaching Q' with Q'(G) = {P3, P4, P5}.
  ChaseState s = chase_->Initial();
  auto s1 = chase_->Step(s, PriceRelax());
  ASSERT_TRUE(s1.has_value());
  auto s2 = chase_->Step(*s1, SensorRemove());
  ASSERT_TRUE(s2.has_value());
  auto s3 = chase_->Step(*s2, DiscountAdd());
  ASSERT_TRUE(s3.has_value());

  std::vector<NodeId> expected = {demo_.p(3), demo_.p(4), demo_.p(5)};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(s3->matches, expected);
  EXPECT_TRUE(s3->ops.IsNormalForm());
  EXPECT_TRUE(s3->ops.IsCanonical());
  // Both tuples and both constraints enforced: ℰ_k = ℰ.
  EXPECT_TRUE(s3->tuples_enforced[0]);
  EXPECT_TRUE(s3->tuples_enforced[1]);
  EXPECT_TRUE(s3->constraints_enforced[0]);
  EXPECT_TRUE(s3->constraints_enforced[1]);
}

TEST_F(ChaseFixture, TerminalWhenBudgetExhausted) {
  ChaseState s = chase_->Initial();
  s.cost = opts_.budget;  // nothing affordable remains
  EXPECT_TRUE(chase_->IsTerminal(s));
}

// Theorem 4.3 cross-validation: AnsW's optimum equals the exhaustive
// enumeration of the chase tree over the same operator universe.
TEST_F(ChaseFixture, AnsWMatchesExhaustiveSearch) {
  ExhaustiveResult exhaustive = ExhaustiveChase(*ctx_, /*max_depth=*/4);
  ASSERT_TRUE(exhaustive.found);

  ChaseOptions opts = opts_;
  opts.use_pruning = true;
  opts.use_cache = true;
  ChaseResult answ =
      Execute(demo_.graph(), {demo_.Question(), opts, Algorithm::kAnsW}).result;
  ASSERT_TRUE(answ.found());
  EXPECT_NEAR(answ.best().closeness, exhaustive.best_closeness, 1e-9);
}

}  // namespace
}  // namespace wqe
