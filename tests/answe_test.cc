#include "chase/solve.h"

#include <gtest/gtest.h>

#include "gen/product_demo.h"

namespace wqe {
namespace {

// A Why-Empty setup: tighten the demo query until nothing matches.
WhyQuestion EmptyQuestion(const ProductDemo& demo) {
  WhyQuestion w = demo.Question();
  const Schema& schema = demo.graph().schema();
  // price >= 2000 kills every candidate.
  w.query.node(w.query.focus()).literals[0].constant = Value::Num(2000);
  // Desired answers: designate P3 and P5 as entities.
  std::vector<NodeId> desired = {demo.p(3), demo.p(5)};
  w.exemplar = Exemplar::FromEntities(demo.graph(), desired);
  (void)schema;
  return w;
}

TEST(AnsWETest, RepairsEmptyAnswer) {
  ProductDemo demo;
  ChaseOptions opts;
  opts.budget = 3;
  WhyQuestion w = EmptyQuestion(demo);

  ChaseContext probe(demo.graph(), w, opts);
  ASSERT_TRUE(probe.root()->matches.empty());

  ChaseResult r = Execute(demo.graph(), {w, opts, Algorithm::kAnsWE}).result;
  ASSERT_TRUE(r.found());
  EXPECT_FALSE(r.best().matches.empty());
  // At least one relevant entity recovered.
  bool has_relevant = false;
  for (NodeId v : r.best().matches) {
    if (v == demo.p(3) || v == demo.p(5)) has_relevant = true;
  }
  EXPECT_TRUE(has_relevant);
}

TEST(AnsWETest, UsesOnlyRemovalOperators) {
  ProductDemo demo;
  ChaseOptions opts;
  opts.budget = 3;
  ChaseResult r = Execute(demo.graph(), {EmptyQuestion(demo), opts,
                                         Algorithm::kAnsWE}).result;
  ASSERT_TRUE(r.found());
  EXPECT_FALSE(r.best().ops.empty());
  for (const Op& op : r.best().ops.ops()) {
    EXPECT_TRUE(op.kind == OpKind::kRmL || op.kind == OpKind::kRmE)
        << op.ToString(demo.graph().schema());
  }
}

TEST(AnsWETest, CostWithinBudget) {
  ProductDemo demo;
  ChaseOptions opts;
  opts.budget = 3;
  ChaseResult r = Execute(demo.graph(), {EmptyQuestion(demo), opts,
                                         Algorithm::kAnsWE}).result;
  EXPECT_LE(r.best().cost, 3.0 + 1e-9);
}

TEST(AnsWETest, InsufficientBudgetReturnsOriginal) {
  ProductDemo demo;
  ChaseOptions opts;
  opts.budget = 0.5;  // no removal affordable
  ChaseResult r = Execute(demo.graph(), {EmptyQuestion(demo), opts,
                                         Algorithm::kAnsWE}).result;
  ASSERT_TRUE(r.found());
  EXPECT_TRUE(r.best().ops.empty());
  EXPECT_TRUE(r.best().matches.empty());
}

TEST(AnsWETest, MultipleBlockingConditions) {
  // Kill matches with both a focus literal and an unreachable pattern node:
  // the repair must remove both atomic conditions.
  ProductDemo demo;
  const Graph& g = demo.graph();
  ChaseOptions opts;
  opts.budget = 4;

  WhyQuestion w = EmptyQuestion(demo);
  // P3 has no sensor: for P3 to match, the sensor edge must also go.
  std::vector<NodeId> desired = {demo.p(3)};
  w.exemplar = Exemplar::FromEntities(g, desired);

  ChaseResult r = Execute(g, {w, opts, Algorithm::kAnsWE}).result;
  ASSERT_TRUE(r.found());
  ASSERT_FALSE(r.best().matches.empty());
  EXPECT_TRUE(std::binary_search(r.best().matches.begin(),
                                 r.best().matches.end(), demo.p(3)));
  EXPECT_GE(r.best().ops.size(), 2u);  // RmL(price) + RmE(sensor)
}

TEST(AnsWETest, FastOnDemo) {
  ProductDemo demo;
  ChaseOptions opts;
  opts.budget = 3;
  ChaseResult r = Execute(demo.graph(), {EmptyQuestion(demo), opts,
                                         Algorithm::kAnsWE}).result;
  // The PTIME algorithm takes a handful of evaluations, not a search.
  EXPECT_LE(r.stats.steps, 20u);
}

}  // namespace
}  // namespace wqe
