#include "chase/solve.h"

#include <gtest/gtest.h>

#include "gen/product_demo.h"

namespace wqe {
namespace {

// A Why-Many setup: relax the demo query so it returns too many phones,
// and ask for refinements toward the exemplar.
WhyQuestion ManyQuestion(const ProductDemo& demo) {
  WhyQuestion w = demo.Question();
  // Drop the price literal so P1..P5 all match (P6 has no sensor/carrier
  // combo that survives... it has a carrier but no sensor).
  w.query.node(w.query.focus()).literals.clear();
  return w;
}

TEST(ApxWhyMTest, RefinesAwayIrrelevantMatches) {
  ProductDemo demo;
  ChaseOptions opts;
  opts.budget = 3;
  ChaseResult r = Execute(demo.graph(), {ManyQuestion(demo), opts,
                                         Algorithm::kApxWhyM}).result;
  ASSERT_TRUE(r.found());
  // All applied operators must be refinements.
  for (const Op& op : r.best().ops.ops()) {
    EXPECT_TRUE(op.is_refine()) << op.ToString(demo.graph().schema());
  }
  EXPECT_LE(r.best().cost, 3.0 + 1e-9);
}

TEST(ApxWhyMTest, ClosenessNeverDropsBelowOriginal) {
  ProductDemo demo;
  ChaseOptions opts;
  opts.budget = 3;
  WhyQuestion w = ManyQuestion(demo);
  ChaseContext probe(demo.graph(), w, opts);
  const double original = probe.root()->cl;
  ChaseResult r = Execute(demo.graph(), {w, opts, Algorithm::kApxWhyM}).result;
  EXPECT_GE(r.best().closeness + 1e-9, original);
}

TEST(ApxWhyMTest, RemovesAtLeastOneIrrelevantMatchOnDemo) {
  ProductDemo demo;
  ChaseOptions opts;
  opts.budget = 3;
  WhyQuestion w = ManyQuestion(demo);
  ChaseContext probe(demo.graph(), w, opts);
  const size_t im_before = probe.root()->rel.im.size();
  ASSERT_GT(im_before, 0u);

  ChaseResult r = Execute(demo.graph(), {w, opts, Algorithm::kApxWhyM}).result;
  size_t im_after = 0;
  for (NodeId v : r.best().matches) {
    if (!probe.rep().Contains(v)) ++im_after;
  }
  EXPECT_LT(im_after, im_before);
}

TEST(ApxWhyMTest, ZeroBudgetReturnsOriginal) {
  ProductDemo demo;
  ChaseOptions opts;
  opts.budget = 0.5;  // below any operator cost
  ChaseResult r = Execute(demo.graph(), {ManyQuestion(demo), opts,
                                         Algorithm::kApxWhyM}).result;
  ASSERT_TRUE(r.found());
  EXPECT_TRUE(r.best().ops.empty());
}

TEST(ApxWhyMTest, NoIrrelevantMatchesMeansNoOps) {
  // Exemplar covering every match leaves nothing to refine away.
  ProductDemo demo;
  WhyQuestion w = demo.Question();
  std::vector<NodeId> all = {demo.p(1), demo.p(2), demo.p(5)};
  w.exemplar = Exemplar::FromEntities(demo.graph(), all);
  ChaseOptions opts;
  opts.budget = 3;
  ChaseResult r = Execute(demo.graph(), {w, opts, Algorithm::kApxWhyM}).result;
  ASSERT_TRUE(r.found());
  EXPECT_TRUE(r.best().ops.empty());
}

}  // namespace
}  // namespace wqe
