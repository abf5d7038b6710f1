#include "chase/multi_focus.h"

#include <gtest/gtest.h>

#include "gen/product_demo.h"

namespace wqe {
namespace {

class MultiFocusFixture : public ::testing::Test {
 protected:
  // Two foci on the product query: the cellphone (with the paper's
  // exemplar) and the carrier (desired: Sprint).
  MultiFocusQuestion Question() const {
    MultiFocusQuestion w;
    w.query = demo_.Query();
    w.foci = {0, 2};
    w.exemplars.push_back(demo_.MakeExemplar());
    std::vector<NodeId> sprint = {demo_.sprint()};
    w.exemplars.push_back(Exemplar::FromEntities(demo_.graph(), sprint));
    return w;
  }

  ChaseOptions Opts(double budget = 4) const {
    ChaseOptions o;
    o.budget = budget;
    return o;
  }

  ProductDemo demo_;
};

TEST_F(MultiFocusFixture, FindsJointlySatisfyingRewrite) {
  MultiFocusResult r = AnsWMultiFocus(demo_.graph(), Question(), Opts());
  ASSERT_TRUE(r.found());
  const MultiFocusAnswer& best = r.best();
  EXPECT_TRUE(best.satisfies_all);
  ASSERT_EQ(best.matches_per_focus.size(), 2u);
  ASSERT_EQ(best.closeness_per_focus.size(), 2u);
  EXPECT_NEAR(best.total_closeness,
              best.closeness_per_focus[0] + best.closeness_per_focus[1], 1e-9);
}

TEST_F(MultiFocusFixture, JointClosenessImprovesOverRoot) {
  MultiFocusQuestion w = Question();
  MultiFocusResult r = AnsWMultiFocus(demo_.graph(), w, Opts());
  ASSERT_TRUE(r.found());

  // Root joint closeness, computed independently.
  ChaseOptions opts = Opts();
  double root_total = 0;
  for (size_t i = 0; i < w.foci.size(); ++i) {
    WhyQuestion per{w.query, w.exemplars[i]};
    per.query.SetFocus(w.foci[i]);
    ChaseContext ctx(demo_.graph(), per, opts);
    root_total += ctx.root()->cl;
  }
  EXPECT_GT(r.best().total_closeness, root_total);
}

TEST_F(MultiFocusFixture, ClStarIsSumOfPerFocusOptima) {
  MultiFocusQuestion w = Question();
  MultiFocusResult r = AnsWMultiFocus(demo_.graph(), w, Opts());
  double expected = 0;
  ChaseOptions opts = Opts();
  for (size_t i = 0; i < w.foci.size(); ++i) {
    WhyQuestion per{w.query, w.exemplars[i]};
    per.query.SetFocus(w.foci[i]);
    ChaseContext ctx(demo_.graph(), per, opts);
    expected += ctx.cl_star();
  }
  EXPECT_NEAR(r.cl_star_total, expected, 1e-9);
  EXPECT_LE(r.best().total_closeness, r.cl_star_total + 1e-9);
}

TEST_F(MultiFocusFixture, BudgetRespected) {
  MultiFocusResult r = AnsWMultiFocus(demo_.graph(), Question(), Opts(2));
  ASSERT_TRUE(r.found());
  EXPECT_LE(r.best().cost, 2.0 + 1e-9);
}

TEST_F(MultiFocusFixture, SingleFocusDegeneratesToAnsWCloseness) {
  MultiFocusQuestion w;
  w.query = demo_.Query();
  w.foci = {0};
  w.exemplars = {demo_.MakeExemplar()};
  MultiFocusResult multi = AnsWMultiFocus(demo_.graph(), w, Opts());

  ChaseResult single = Execute(demo_.graph(), {demo_.Question(), Opts(),
                                               Algorithm::kAnsW}).result;
  ASSERT_TRUE(multi.found());
  ASSERT_TRUE(single.found());
  EXPECT_NEAR(multi.best().total_closeness, single.best().closeness, 1e-9);
}

TEST_F(MultiFocusFixture, RejectsMalformedInput) {
  MultiFocusQuestion w;
  w.query = demo_.Query();
  w.foci = {0, 2};
  w.exemplars = {demo_.MakeExemplar()};  // size mismatch
  MultiFocusResult r = AnsWMultiFocus(demo_.graph(), w, Opts());
  EXPECT_FALSE(r.found());
}

}  // namespace
}  // namespace wqe
