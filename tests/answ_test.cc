#include "chase/solve.h"

#include <gtest/gtest.h>

#include "gen/product_demo.h"

namespace wqe {
namespace {

ChaseOptions DemoOptions(double budget = 4.0) {
  ChaseOptions opts;
  opts.budget = budget;
  return opts;
}

// End-to-end on the paper's running example: with enough budget AnsW
// reaches the theoretical optimum cl* = 1/2 and answers {P3, P4, P5}.
TEST(AnsWTest, ProductDemoReachesTheoreticalOptimum) {
  ProductDemo demo;
  ChaseResult result = Execute(demo.graph(), {demo.Question(), DemoOptions(),
                                              Algorithm::kAnsW}).result;
  ASSERT_TRUE(result.found());
  const WhyAnswer& best = result.best();
  EXPECT_TRUE(best.satisfies_exemplar);
  EXPECT_NEAR(result.cl_star, 0.5, 1e-9);
  EXPECT_NEAR(best.closeness, 0.5, 1e-9);
  std::vector<NodeId> expected = {demo.p(3), demo.p(4), demo.p(5)};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(best.matches, expected);
  EXPECT_LE(best.cost, 4.0 + 1e-9);
  EXPECT_EQ(result.termination(), TerminationReason::kOptimal);
}

TEST(AnsWTest, RewriteIsNormalFormAndCanonical) {
  ProductDemo demo;
  ChaseResult result = Execute(demo.graph(), {demo.Question(), DemoOptions(),
                                              Algorithm::kAnsW}).result;
  ASSERT_TRUE(result.found());
  EXPECT_TRUE(result.best().ops.IsNormalForm());
  EXPECT_TRUE(result.best().ops.IsCanonical());
}

TEST(AnsWTest, SmallBudgetFindsPartialAnswer) {
  // B = 2 cannot both relax the price and refine away P1/P2 — but can still
  // produce a satisfying rewrite with lower closeness.
  ProductDemo demo;
  ChaseResult result = Execute(demo.graph(), {demo.Question(), DemoOptions(2.0),
                                              Algorithm::kAnsW}).result;
  ASSERT_TRUE(result.found());
  EXPECT_LE(result.best().cost, 2.0 + 1e-9);
  EXPECT_LT(result.best().closeness, 0.5);
}

TEST(AnsWTest, LargerBudgetNeverHurts) {
  ProductDemo demo;
  double prev = -1e18;
  for (double budget : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    ChaseResult r = Execute(demo.graph(), {demo.Question(), DemoOptions(budget),
                                           Algorithm::kAnsW}).result;
    ASSERT_TRUE(r.found());
    EXPECT_GE(r.best().closeness + 1e-9, prev) << "budget " << budget;
    prev = r.best().closeness;
  }
}

TEST(AnsWTest, AblationsAgreeOnOptimum) {
  // Caching and pruning are pure optimizations: AnsW, AnsWnc and AnsWb must
  // find the same best closeness on the demo.
  ProductDemo demo;
  ChaseOptions base = DemoOptions();

  ChaseOptions nc = base;
  nc.use_cache = false;
  ChaseOptions b = base;
  b.use_cache = false;
  b.use_pruning = false;

  auto best_cl = [&](const ChaseOptions& o) {
    return Execute(demo.graph(), {demo.Question(), o, Algorithm::kAnsW})
        .result.best()
        .closeness;
  };
  const double cl_full = best_cl(base);
  const double cl_nc = best_cl(nc);
  const double cl_b = best_cl(b);
  EXPECT_NEAR(cl_full, cl_nc, 1e-9);
  EXPECT_NEAR(cl_full, cl_b, 1e-9);
}

TEST(AnsWTest, PruningReducesWork) {
  ProductDemo demo;
  ChaseOptions base = DemoOptions();
  ChaseOptions no_prune = base;
  no_prune.use_pruning = false;

  ChaseResult with =
      Execute(demo.graph(), {demo.Question(), base, Algorithm::kAnsW}).result;
  ChaseResult without = Execute(demo.graph(), {demo.Question(), no_prune,
                                               Algorithm::kAnsW}).result;
  EXPECT_LE(with.stats.steps, without.stats.steps);
}

TEST(AnsWTest, AnytimeTraceIsMonotone) {
  ProductDemo demo;
  ChaseResult result = Execute(demo.graph(), {demo.Question(), DemoOptions(),
                                              Algorithm::kAnsW}).result;
  ASSERT_FALSE(result.trace.empty());
  for (size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_GE(result.trace[i].closeness, result.trace[i - 1].closeness);
    EXPECT_GE(result.trace[i].seconds, result.trace[i - 1].seconds);
  }
  EXPECT_NEAR(result.trace.back().closeness, result.best().closeness, 1e-9);
}

TEST(AnsWTest, TopKReturnsDistinctRankedRewrites) {
  ProductDemo demo;
  ChaseOptions opts = DemoOptions();
  opts.top_k = 3;
  ChaseResult result =
      Execute(demo.graph(), {demo.Question(), opts, Algorithm::kAnsW}).result;
  ASSERT_GE(result.answers.size(), 2u);
  for (size_t i = 1; i < result.answers.size(); ++i) {
    EXPECT_GE(result.answers[i - 1].closeness + 1e-12,
              result.answers[i].closeness);
    EXPECT_NE(result.answers[i - 1].rewrite.Fingerprint(),
              result.answers[i].rewrite.Fingerprint());
  }
}

TEST(AnsWTest, DeadlineReturnsBestSoFar) {
  ProductDemo demo;
  ChaseOptions opts = DemoOptions();
  opts.deadline = Deadline::After(0.0);  // expire immediately
  ChaseResult result =
      Execute(demo.graph(), {demo.Question(), opts, Algorithm::kAnsW}).result;
  // Anytime contract: always reports something (at worst the original Q).
  ASSERT_TRUE(result.found());
}

TEST(AnsWTest, MaxStepsBoundsWork) {
  ProductDemo demo;
  ChaseOptions opts = DemoOptions();
  opts.max_steps = 1;
  ChaseResult result =
      Execute(demo.graph(), {demo.Question(), opts, Algorithm::kAnsW}).result;
  EXPECT_LE(result.stats.steps, 1u);
}

TEST(AnsWTest, BudgetRespectedByAllReportedAnswers) {
  ProductDemo demo;
  ChaseOptions opts = DemoOptions(3.0);
  opts.top_k = 5;
  ChaseResult result =
      Execute(demo.graph(), {demo.Question(), opts, Algorithm::kAnsW}).result;
  for (const WhyAnswer& a : result.answers) {
    EXPECT_LE(a.cost, 3.0 + 1e-9);
  }
}

TEST(AnsWTest, StatsPopulated) {
  ProductDemo demo;
  ChaseResult result = Execute(demo.graph(), {demo.Question(), DemoOptions(),
                                              Algorithm::kAnsW}).result;
  EXPECT_GT(result.stats.steps, 0u);
  EXPECT_GT(result.stats.evaluations, 0u);
  EXPECT_GT(result.stats.ops_generated, 0u);
  EXPECT_GE(result.stats.elapsed_seconds, 0.0);
}

}  // namespace
}  // namespace wqe
