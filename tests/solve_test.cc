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

// Tighten the demo query until nothing matches (Why-Empty input).
WhyQuestion EmptyQuestion(const ProductDemo& demo) {
  WhyQuestion w = demo.Question();
  w.query.node(w.query.focus()).literals[0].constant = Value::Num(2000);
  const std::vector<NodeId> desired = {demo.p(3), demo.p(5)};
  w.exemplar = Exemplar::FromEntities(demo.graph(), desired);
  return w;
}

// Drop the price literal so the query over-matches (Why-Many input).
WhyQuestion ManyQuestion(const ProductDemo& demo) {
  WhyQuestion w = demo.Question();
  w.query.node(w.query.focus()).literals.clear();
  return w;
}

TEST(AlgorithmTest, NamesMatchThePaper) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kAnsW), "AnsW");
  EXPECT_STREQ(AlgorithmName(Algorithm::kAnsWE), "AnsWE");
  EXPECT_STREQ(AlgorithmName(Algorithm::kAnsHeu), "AnsHeu");
  EXPECT_STREQ(AlgorithmName(Algorithm::kFMAnsW), "FMAnsW");
  EXPECT_STREQ(AlgorithmName(Algorithm::kApxWhyM), "ApxWhyM");
}

TEST(AlgorithmTest, FromStringAcceptsCanonicalNames) {
  for (Algorithm a :
       {Algorithm::kAnsW, Algorithm::kAnsWE, Algorithm::kAnsHeu,
        Algorithm::kFMAnsW, Algorithm::kApxWhyM}) {
    const auto parsed = AlgorithmFromString(AlgorithmName(a));
    ASSERT_TRUE(parsed.has_value()) << AlgorithmName(a);
    EXPECT_EQ(*parsed, a);
  }
}

TEST(AlgorithmTest, FromStringIsCaseInsensitiveAndKnowsAliases) {
  EXPECT_EQ(AlgorithmFromString("answ"), Algorithm::kAnsW);
  EXPECT_EQ(AlgorithmFromString("ANSW"), Algorithm::kAnsW);
  EXPECT_EQ(AlgorithmFromString("whye"), Algorithm::kAnsWE);
  EXPECT_EQ(AlgorithmFromString("heu"), Algorithm::kAnsHeu);
  EXPECT_EQ(AlgorithmFromString("fm"), Algorithm::kFMAnsW);
  EXPECT_EQ(AlgorithmFromString("whym"), Algorithm::kApxWhyM);
  EXPECT_FALSE(AlgorithmFromString("dijkstra").has_value());
  EXPECT_FALSE(AlgorithmFromString("").has_value());
}

TEST(SolveTest, DeterministicAcrossRuns) {
  ProductDemo demo;
  ChaseResult a =
      Execute(demo.graph(), {demo.Question(), DemoOptions(),
                             Algorithm::kAnsW}).result;
  ChaseResult b =
      Execute(demo.graph(), {demo.Question(), DemoOptions(),
                             Algorithm::kAnsW}).result;
  ASSERT_EQ(a.answers.size(), b.answers.size());
  for (size_t i = 0; i < a.answers.size(); ++i) {
    EXPECT_EQ(a.answers[i].rewrite.Fingerprint(),
              b.answers[i].rewrite.Fingerprint());
    EXPECT_EQ(a.answers[i].matches, b.answers[i].matches);
  }
}

TEST(SolveTest, DefaultAlgorithmIsAnsW) {
  ProductDemo demo;
  ChaseResult implicit =
      Execute(demo.graph(), {demo.Question(), DemoOptions()}).result;
  ChaseResult explicit_answ =
      Execute(demo.graph(), {demo.Question(), DemoOptions(),
                             Algorithm::kAnsW}).result;
  ASSERT_TRUE(implicit.found());
  EXPECT_EQ(implicit.best().rewrite.Fingerprint(),
            explicit_answ.best().rewrite.Fingerprint());
}

TEST(SolveTest, DispatchesEveryAlgorithm) {
  ProductDemo demo;
  const ChaseOptions opts = DemoOptions(3.0);

  ChaseResult answ =
      Execute(demo.graph(), {demo.Question(), opts, Algorithm::kAnsW}).result;
  EXPECT_TRUE(answ.ok());
  EXPECT_TRUE(answ.found());

  ChaseResult heu =
      Execute(demo.graph(), {demo.Question(), opts, Algorithm::kAnsHeu}).result;
  EXPECT_TRUE(heu.ok());
  EXPECT_TRUE(heu.found());

  ChaseResult fm =
      Execute(demo.graph(), {demo.Question(), opts, Algorithm::kFMAnsW}).result;
  EXPECT_TRUE(fm.ok());
  EXPECT_TRUE(fm.found());

  ChaseResult we =
      Execute(demo.graph(), {EmptyQuestion(demo), opts,
                             Algorithm::kAnsWE}).result;
  EXPECT_TRUE(we.ok());
  EXPECT_TRUE(we.found());
  EXPECT_FALSE(we.best().matches.empty());

  ChaseResult wm =
      Execute(demo.graph(), {ManyQuestion(demo), opts,
                             Algorithm::kApxWhyM}).result;
  EXPECT_TRUE(wm.ok());
  EXPECT_TRUE(wm.found());
}

TEST(SolveTest, EachRunReportsItsOwnPhaseBreakdown) {
  ProductDemo demo;
  obs::Observability o;
  ChaseOptions opts = DemoOptions();
  opts.observability = &o;
  ChaseResult first =
      Execute(demo.graph(), {demo.Question(), opts, Algorithm::kAnsW}).result;
  ChaseResult second =
      Execute(demo.graph(), {demo.Question(), opts, Algorithm::kAnsHeu}).result;

  // Phases are per run (DiffPhases against the shared tracer), so each
  // result names its own solve span and not the other's.
  auto has_phase = [](const ChaseResult& r, const std::string& name) {
    for (const obs::PhaseStat& p : r.stats.phases) {
      if (p.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_phase(first, "solve.AnsW"));
  EXPECT_FALSE(has_phase(first, "solve.AnsHeu"));
  EXPECT_TRUE(has_phase(second, "solve.AnsHeu"));
  EXPECT_FALSE(has_phase(second, "solve.AnsW"));
  EXPECT_EQ(o.metrics.counter("solve.runs").Value(), 2u);
}

TEST(SolveTest, RejectsInvalidOptionsBeforeSearching) {
  ProductDemo demo;

  ChaseOptions zero_topk = DemoOptions();
  zero_topk.top_k = 0;
  ChaseResult r = Execute(demo.graph(), {demo.Question(), zero_topk,
                                         Algorithm::kAnsW}).result;
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.found());
  EXPECT_EQ(r.stats.steps, 0u);
  EXPECT_NE(r.status.ToString().find("top_k"), std::string::npos);

  ChaseOptions bad_lambda = DemoOptions();
  bad_lambda.closeness.lambda = 1.5;
  EXPECT_FALSE(Execute(demo.graph(), {demo.Question(), bad_lambda,
                                      Algorithm::kAnsW}).result.ok());

  ChaseOptions bad_budget = DemoOptions();
  bad_budget.budget = -1;
  EXPECT_FALSE(Execute(demo.graph(), {demo.Question(), bad_budget,
                                      Algorithm::kAnsW}).result.ok());

  ChaseOptions zero_beam = DemoOptions();
  zero_beam.beam = 0;
  EXPECT_FALSE(
      Execute(demo.graph(), {demo.Question(), zero_beam,
                             Algorithm::kAnsHeu}).result.ok());

  ChaseOptions zero_steps = DemoOptions();
  zero_steps.max_steps = 0;
  EXPECT_FALSE(Execute(demo.graph(), {demo.Question(), zero_steps,
                                      Algorithm::kAnsW}).result.ok());
}

TEST(SolveTest, ValidOptionsPassValidate) {
  EXPECT_TRUE(ChaseOptions().Validate().ok());
  EXPECT_TRUE(DemoOptions().Validate().ok());
}

TEST(SolveTest, StepCapReportsTermination) {
  ProductDemo demo;
  ChaseOptions opts = DemoOptions();
  opts.max_steps = 1;
  ChaseResult r =
      Execute(demo.graph(), {demo.Question(), opts, Algorithm::kAnsW}).result;
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.termination(), TerminationReason::kStepCap);
}

TEST(SolveTest, OptimalTerminationOnDemo) {
  ProductDemo demo;
  ChaseResult r = Execute(demo.graph(), {demo.Question(), DemoOptions(),
                                         Algorithm::kAnsW}).result;
  ASSERT_TRUE(r.found());
  EXPECT_EQ(r.termination(), TerminationReason::kOptimal);
  EXPECT_STREQ(TerminationReasonName(r.termination()), "optimal");
}

}  // namespace
}  // namespace wqe
