// End-to-end pipeline tests on synthetic workloads: dataset generation ->
// ground-truth queries -> disturbance -> Why-questions -> all algorithms.

#include <gtest/gtest.h>

#include "chase/solve.h"
#include "gen/datasets.h"
#include "gen/synthetic.h"
#include "workload/suite.h"

namespace wqe {
namespace {

class IntegrationFixture : public ::testing::Test {
 protected:
  IntegrationFixture() : g_(GenerateGraph(ImdbLike(0.04))) {
    WhyFactoryOptions opts;
    opts.query.num_edges = 2;
    opts.disturb.num_ops = 2;
    opts.seed = 77;
    cases_ = MakeBenchCases(g_, 4, opts);
  }

  ChaseOptions Base() const {
    ChaseOptions o;
    o.budget = 3;
    o.max_steps = 2000;
    return o;
  }

  Graph g_;
  std::vector<BenchCase> cases_;
};

TEST_F(IntegrationFixture, CasesGenerated) { ASSERT_GE(cases_.size(), 2u); }

TEST_F(IntegrationFixture, AnsWProducesValidAnswersOnSynthetic) {
  for (const BenchCase& c : cases_) {
    ChaseResult r = Execute(g_, {c.question, Base(), Algorithm::kAnsW}).result;
    ASSERT_TRUE(r.found());
    EXPECT_LE(r.best().cost, 3.0 + 1e-9);
    EXPECT_TRUE(r.best().ops.IsNormalForm());
    // The reported closeness is consistent with an independent evaluation.
    ChaseContext probe(g_, c.question, Base());
    auto eval = probe.Evaluate(r.best().rewrite, r.best().ops);
    EXPECT_NEAR(eval->cl, r.best().closeness, 1e-9);
    EXPECT_EQ(eval->matches, r.best().matches);
  }
}

TEST_F(IntegrationFixture, ExactDominatesHeuristicAndBaseline) {
  for (const BenchCase& c : cases_) {
    const double exact = Execute(g_, {c.question, Base(), Algorithm::kAnsW})
                             .result.best()
                             .closeness;
    ChaseOptions heu_opts = Base();
    heu_opts.beam = 2;
    const double heu = Execute(g_, {c.question, heu_opts, Algorithm::kAnsHeu})
                           .result.best()
                           .closeness;
    EXPECT_LE(heu, exact + 1e-9);
  }
}

TEST_F(IntegrationFixture, AblationsAgreeOnBestCloseness) {
  // Pruning and caching must not change the optimum (Lemma 5.5 soundness).
  for (const BenchCase& c : cases_) {
    ChaseOptions base = Base();
    ChaseOptions nc = base;
    nc.use_cache = false;
    ChaseOptions nb = base;
    nb.use_cache = false;
    nb.use_pruning = false;

    const double full = Execute(g_, {c.question, base,
                                     Algorithm::kAnsW}).result.best().closeness;
    const double no_cache =
        Execute(g_, {c.question, nc, Algorithm::kAnsW}).result.best().closeness;
    const double no_prune =
        Execute(g_, {c.question, nb, Algorithm::kAnsW}).result.best().closeness;
    EXPECT_NEAR(full, no_cache, 1e-9);
    EXPECT_NEAR(full, no_prune, 1e-9);
  }
}

TEST_F(IntegrationFixture, RecoversGroundTruthAnswersReasonably) {
  // With small disturbances and matching budget, rewrites should overlap
  // the ground-truth answers substantially on average.
  Aggregate delta;
  for (const BenchCase& c : cases_) {
    ChaseResult r = Execute(g_, {c.question, Base(), Algorithm::kAnsW}).result;
    delta.Add(AnswerJaccard(r.best().matches, c.gt_answer));
  }
  EXPECT_GT(delta.Mean(), 0.3);
}

TEST_F(IntegrationFixture, SharedContextSessionsReuseCache) {
  // Exploratory-search style: consecutive questions over one context.
  const BenchCase& c = cases_.front();
  ChaseContext ctx(g_, c.question, Base());
  ChaseResult first = ExecuteWithContext(ctx, Algorithm::kAnsW).result;
  ASSERT_TRUE(first.found());
  const uint64_t evals_first = ctx.stats().evaluations;
  ChaseResult second = ExecuteWithContext(ctx, Algorithm::kAnsW).result;
  ASSERT_TRUE(second.found());
  // The memo answers every repeated rewrite: no new evaluations needed.
  EXPECT_EQ(ctx.stats().evaluations, evals_first);
  EXPECT_NEAR(first.best().closeness, second.best().closeness, 1e-9);
}

TEST_F(IntegrationFixture, WorksOnAllDatasetPresets) {
  for (const GraphSpec& spec : AllDatasets(0.01)) {
    Graph g = GenerateGraph(spec);
    WhyFactoryOptions opts;
    opts.query.num_edges = 1;
    opts.disturb.num_ops = 1;
    auto cases = MakeBenchCases(g, 1, opts);
    if (cases.empty()) continue;  // tiny presets may fail generation
    ChaseOptions base;
    base.budget = 2;
    base.max_steps = 500;
    base.beam = 2;
    ChaseResult r =
        Execute(g, {cases[0].question, base, Algorithm::kAnsHeu}).result;
    EXPECT_TRUE(r.found()) << spec.name;
  }
}

}  // namespace
}  // namespace wqe
