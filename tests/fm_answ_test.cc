#include "chase/solve.h"

#include <gtest/gtest.h>

#include "gen/product_demo.h"

namespace wqe {
namespace {

TEST(FMAnsWTest, ProducesAnAnswerOnDemo) {
  ProductDemo demo;
  ChaseOptions opts;
  opts.budget = 4;
  ChaseResult r =
      Execute(demo.graph(), {demo.Question(), opts, Algorithm::kFMAnsW}).result;
  ASSERT_TRUE(r.found());
  EXPECT_GE(r.best().closeness, 0.0);
}

TEST(FMAnsWTest, NeverBeatsAnsW) {
  ProductDemo demo;
  ChaseOptions opts;
  opts.budget = 4;
  const double exact =
      Execute(demo.graph(), {demo.Question(), opts,
                             Algorithm::kAnsW}).result.best().closeness;
  const double baseline =
      Execute(demo.graph(), {demo.Question(), opts,
                             Algorithm::kFMAnsW}).result.best().closeness;
  EXPECT_LE(baseline, exact + 1e-9);
}

TEST(FMAnsWTest, MinedQueryIsFocusStar) {
  ProductDemo demo;
  ChaseOptions opts;
  opts.budget = 4;
  ChaseResult r =
      Execute(demo.graph(), {demo.Question(), opts, Algorithm::kFMAnsW}).result;
  const PatternQuery& q = r.best().rewrite;
  // Suggested rewrites are stars around the focus (or the original query).
  const QueryShape shape = q.Shape();
  EXPECT_TRUE(shape == QueryShape::kStar || shape == QueryShape::kChain)
      << QueryShapeName(shape);
}

TEST(FMAnsWTest, RespectsBudget) {
  ProductDemo demo;
  ChaseOptions opts;
  opts.budget = 2;
  ChaseResult r =
      Execute(demo.graph(), {demo.Question(), opts, Algorithm::kFMAnsW}).result;
  EXPECT_LE(r.best().cost, 2.0 + 1e-9);
}

TEST(FMAnsWTest, StepsReflectEnumerationEffort) {
  ProductDemo demo;
  ChaseOptions opts;
  opts.budget = 4;
  ChaseResult r =
      Execute(demo.graph(), {demo.Question(), opts, Algorithm::kFMAnsW}).result;
  EXPECT_GT(r.stats.steps, 0u);
}

}  // namespace
}  // namespace wqe
