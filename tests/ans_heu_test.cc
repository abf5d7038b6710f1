#include "chase/solve.h"

#include <gtest/gtest.h>

#include "gen/product_demo.h"

namespace wqe {
namespace {

ChaseOptions DemoOptions(size_t beam) {
  ChaseOptions opts;
  opts.budget = 4;
  opts.beam = beam;
  return opts;
}

TEST(AnsHeuTest, FindsSatisfyingRewriteOnDemo) {
  ProductDemo demo;
  ChaseResult r = Execute(demo.graph(), {demo.Question(), DemoOptions(3),
                                         Algorithm::kAnsHeu}).result;
  ASSERT_TRUE(r.found());
  EXPECT_TRUE(r.best().satisfies_exemplar);
  EXPECT_GT(r.best().closeness, 0.0);
}

TEST(AnsHeuTest, NeverBeatsExactAnsW) {
  ProductDemo demo;
  const double exact =
      Execute(demo.graph(), {demo.Question(), DemoOptions(1),
                             Algorithm::kAnsW}).result.best().closeness;
  for (size_t beam : {1u, 2u, 4u}) {
    const double heu =
        Execute(demo.graph(), {demo.Question(), DemoOptions(beam),
                               Algorithm::kAnsHeu}).result.best().closeness;
    EXPECT_LE(heu, exact + 1e-9) << "beam " << beam;
  }
}

TEST(AnsHeuTest, WiderBeamNeverLosesOnDemo) {
  ProductDemo demo;
  double prev = -1e18;
  for (size_t beam : {1u, 2u, 3u, 5u}) {
    ChaseResult r = Execute(demo.graph(), {demo.Question(), DemoOptions(beam),
                                           Algorithm::kAnsHeu}).result;
    ASSERT_TRUE(r.found());
    EXPECT_GE(r.best().closeness + 1e-9, prev) << "beam " << beam;
    prev = r.best().closeness;
  }
}

TEST(AnsHeuTest, BudgetRespected) {
  ProductDemo demo;
  ChaseResult r = Execute(demo.graph(), {demo.Question(), DemoOptions(3),
                                         Algorithm::kAnsHeu}).result;
  EXPECT_LE(r.best().cost, 4.0 + 1e-9);
}

TEST(AnsHeuTest, RandomVariantStillProducesAnswers) {
  ProductDemo demo;
  ChaseOptions opts = DemoOptions(3);
  opts.random_ops = true;
  opts.seed = 17;
  ChaseResult r =
      Execute(demo.graph(), {demo.Question(), opts, Algorithm::kAnsHeu}).result;
  ASSERT_TRUE(r.found());
  // AnsHeuB explores the same op universe in random order; with beam 3 on
  // the tiny demo it still finds a satisfying rewrite.
  EXPECT_TRUE(r.best().satisfies_exemplar);
}

TEST(AnsHeuTest, RandomVariantIsSeedDeterministic) {
  ProductDemo demo;
  ChaseOptions opts = DemoOptions(2);
  opts.random_ops = true;
  opts.seed = 5;
  ChaseResult a =
      Execute(demo.graph(), {demo.Question(), opts, Algorithm::kAnsHeu}).result;
  ChaseResult b =
      Execute(demo.graph(), {demo.Question(), opts, Algorithm::kAnsHeu}).result;
  EXPECT_EQ(a.best().rewrite.Fingerprint(), b.best().rewrite.Fingerprint());
}

TEST(AnsHeuTest, DeadlineHonored) {
  ProductDemo demo;
  ChaseOptions opts = DemoOptions(3);
  opts.deadline = Deadline::After(0.0);
  ChaseResult r =
      Execute(demo.graph(), {demo.Question(), opts, Algorithm::kAnsHeu}).result;
  ASSERT_TRUE(r.found());  // anytime fallback
}

TEST(AnsHeuTest, RewritesAreNormalForm) {
  ProductDemo demo;
  ChaseResult r = Execute(demo.graph(), {demo.Question(), DemoOptions(3),
                                         Algorithm::kAnsHeu}).result;
  EXPECT_TRUE(r.best().ops.IsNormalForm());
}

}  // namespace
}  // namespace wqe
