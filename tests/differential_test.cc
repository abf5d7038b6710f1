#include "chase/differential.h"

#include <gtest/gtest.h>

#include "chase/solve.h"
#include "gen/product_demo.h"

namespace wqe {
namespace {

class DifferentialFixture : public ::testing::Test {
 protected:
  DifferentialFixture() {
    opts_.budget = 4;
    ctx_ = std::make_unique<ChaseContext>(demo_.graph(), demo_.Question(), opts_);
  }

  ProductDemo demo_;
  ChaseOptions opts_;
  std::unique_ptr<ChaseContext> ctx_;
};

TEST_F(DifferentialFixture, TracksGainsAndLossesPerOperator) {
  const Schema& schema = demo_.graph().schema();
  OpSequence ops;
  Op rxl;
  rxl.kind = OpKind::kRxL;
  rxl.u = 0;
  rxl.lit = {schema.LookupAttr("price"), CmpOp::kGe, Value::Num(840)};
  rxl.new_lit = {schema.LookupAttr("price"), CmpOp::kGe, Value::Num(790)};
  ops.Append(rxl);
  Op addl;
  addl.kind = OpKind::kAddL;
  addl.u = 2;
  addl.lit = {schema.LookupAttr("discount"), CmpOp::kEq, Value::Num(25)};
  ops.Append(addl);

  DifferentialTable table = BuildDifferentialTable(*ctx_, ops);
  ASSERT_EQ(table.entries().size(), 2u);

  // Step 1: the price relaxation gains P4 (price 795, has sensor) as a
  // relevant match.
  const DifferentialEntry& e1 = table.entries()[0];
  ASSERT_EQ(e1.gained.size(), 1u);
  EXPECT_EQ(e1.gained[0].first, demo_.p(4));
  EXPECT_EQ(e1.gained[0].second, Relevance::kRM);
  EXPECT_TRUE(e1.lost.empty());

  // Step 2: the discount constraint drops P1 and P2 (AT&T customers).
  const DifferentialEntry& e2 = table.entries()[1];
  EXPECT_TRUE(e2.gained.empty());
  ASSERT_EQ(e2.lost.size(), 2u);
}

TEST_F(DifferentialFixture, RendersHumanReadableExplanation) {
  const Schema& schema = demo_.graph().schema();
  OpSequence ops;
  Op rml;  // drop the price literal first so the sensor edge is P3's blocker
  rml.kind = OpKind::kRmL;
  rml.u = 0;
  rml.lit = {schema.LookupAttr("price"), CmpOp::kGe, Value::Num(840)};
  ops.Append(rml);
  Op rme;
  rme.kind = OpKind::kRmE;
  rme.u = 0;
  rme.v = 3;
  rme.bound = 2;
  ops.Append(rme);
  DifferentialTable table = BuildDifferentialTable(*ctx_, ops);
  const std::string text = table.ToString(demo_.graph());
  // "P3 becomes a relevant match due to the removal of e" (§5.4).
  EXPECT_NE(text.find("RmE"), std::string::npos);
  EXPECT_NE(text.find("P3"), std::string::npos);
  EXPECT_NE(text.find("relevant match"), std::string::npos);
}

TEST_F(DifferentialFixture, NoChangeStepIsExplicit) {
  const Schema& schema = demo_.graph().schema();
  OpSequence ops;
  Op addl;  // RAM >= 4 holds for every current match: no answer change
  addl.kind = OpKind::kAddL;
  addl.u = 0;
  addl.lit = {schema.LookupAttr("ram"), CmpOp::kGe, Value::Num(4)};
  ops.Append(addl);
  DifferentialTable table = BuildDifferentialTable(*ctx_, ops);
  ASSERT_EQ(table.entries().size(), 1u);
  EXPECT_TRUE(table.entries()[0].gained.empty());
  EXPECT_TRUE(table.entries()[0].lost.empty());
  EXPECT_NE(table.ToString(demo_.graph()).find("no answer change"),
            std::string::npos);
}

TEST_F(DifferentialFixture, ExplainsOptimalRewriteEndToEnd) {
  ChaseResult result = ExecuteWithContext(*ctx_, Algorithm::kAnsW).result;
  ASSERT_TRUE(result.found());
  DifferentialTable table = BuildDifferentialTable(*ctx_, result.best().ops);
  EXPECT_EQ(table.entries().size(), result.best().ops.size());
  // Net gains across the table must equal the answer delta.
  std::set<NodeId> current(ctx_->root()->matches.begin(),
                           ctx_->root()->matches.end());
  for (const DifferentialEntry& e : table.entries()) {
    for (const auto& [v, st] : e.gained) current.insert(v);
    for (const auto& [v, st] : e.lost) current.erase(v);
  }
  std::vector<NodeId> final_matches(current.begin(), current.end());
  EXPECT_EQ(final_matches, result.best().matches);
}

}  // namespace
}  // namespace wqe
