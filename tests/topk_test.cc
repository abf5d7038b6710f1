// §6.2 top-k query suggestion: the extension must preserve the optimality
// guarantee — the k best closenesses AnsW reports equal the k best among
// all answers the exhaustive reference enumeration finds.

#include <gtest/gtest.h>

#include "chase/chase.h"
#include "chase/solve.h"
#include "gen/product_demo.h"

namespace wqe {
namespace {

class TopKFixture : public ::testing::Test {
 protected:
  ChaseOptions Opts(size_t k) const {
    ChaseOptions o;
    o.budget = 4;
    o.top_k = k;
    return o;
  }

  ProductDemo demo_;
};

TEST_F(TopKFixture, TopOneEqualsExhaustiveOptimum) {
  ChaseOptions exhaustive_opts = Opts(1);
  exhaustive_opts.use_pruning = false;
  ChaseContext ref_ctx(demo_.graph(), demo_.Question(), exhaustive_opts);
  ExhaustiveResult ref = ExhaustiveChase(ref_ctx, 4);
  ASSERT_TRUE(ref.found);

  ChaseResult r = Execute(demo_.graph(), {demo_.Question(), Opts(1),
                                          Algorithm::kAnsW}).result;
  EXPECT_NEAR(r.best().closeness, ref.best_closeness, 1e-9);
}

TEST_F(TopKFixture, TopKBestMatchesTopOneBest) {
  // The §6.2 pruning change must not cost the global optimum.
  const double top1 =
      Execute(demo_.graph(), {demo_.Question(), Opts(1),
                              Algorithm::kAnsW}).result.best().closeness;
  for (size_t k : {2u, 3u, 5u}) {
    ChaseResult r = Execute(demo_.graph(), {demo_.Question(), Opts(k),
                                            Algorithm::kAnsW}).result;
    EXPECT_NEAR(r.best().closeness, top1, 1e-9) << "k=" << k;
  }
}

TEST_F(TopKFixture, LargerKNeverShrinksTheList) {
  size_t prev = 0;
  for (size_t k : {1u, 2u, 3u, 5u}) {
    ChaseResult r = Execute(demo_.graph(), {demo_.Question(), Opts(k),
                                            Algorithm::kAnsW}).result;
    EXPECT_GE(r.answers.size(), std::min<size_t>(prev, k));
    EXPECT_LE(r.answers.size(), k);
    prev = r.answers.size();
  }
}

TEST_F(TopKFixture, AllTopKAnswersSatisfyExemplar) {
  ChaseResult r = Execute(demo_.graph(), {demo_.Question(), Opts(5),
                                          Algorithm::kAnsW}).result;
  ASSERT_GE(r.answers.size(), 2u);
  for (const WhyAnswer& a : r.answers) {
    EXPECT_TRUE(a.satisfies_exemplar);
  }
}

TEST_F(TopKFixture, SecondBestIsTheNextClosenessLevel) {
  // On the demo the optimum is 1/2 ({P3,P4,P5}); the runner-up keeps two of
  // the three relevant phones (closeness 1/3) or trades one for a penalty.
  ChaseResult r = Execute(demo_.graph(), {demo_.Question(), Opts(3),
                                          Algorithm::kAnsW}).result;
  ASSERT_GE(r.answers.size(), 2u);
  EXPECT_NEAR(r.answers[0].closeness, 0.5, 1e-9);
  EXPECT_LT(r.answers[1].closeness, r.answers[0].closeness + 1e-12);
  EXPECT_GT(r.answers[1].closeness, 0.0);
}

TEST_F(TopKFixture, HeuristicTopKAlsoRanked) {
  ChaseOptions o = Opts(3);
  o.beam = 3;
  ChaseResult r =
      Execute(demo_.graph(), {demo_.Question(), o, Algorithm::kAnsHeu}).result;
  for (size_t i = 1; i < r.answers.size(); ++i) {
    EXPECT_GE(r.answers[i - 1].closeness + 1e-12, r.answers[i].closeness);
  }
}

}  // namespace
}  // namespace wqe
