// Regression tests for the deadline satellite: solvers must report
// TerminationReason::kDeadline when the clock fires mid-search, keep an
// anytime answer, and bound their overshoot — the periodic checks inside
// star-table materialization and match verification make a single Evaluate
// interruptible instead of running to completion.

#include <gtest/gtest.h>

#include "chase/solve.h"
#include "common/timer.h"
#include "gen/datasets.h"
#include "gen/product_demo.h"
#include "gen/synthetic.h"
#include "workload/why_factory.h"

namespace wqe {
namespace {

TEST(DeadlineTest, ExpiredDeadlineStillYieldsRootAnswer) {
  ProductDemo demo;
  ChaseOptions opts;
  opts.time_limit_seconds = 1e-9;  // expired before the first solver step
  ChaseResult r =
      Execute(demo.graph(), {demo.Question(), opts, Algorithm::kAnsW}).result;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.termination(), TerminationReason::kDeadline);
  // Anytime contract: the root rewrite (the original question) survives.
  ASSERT_TRUE(r.found());
  EXPECT_EQ(r.best().rewrite.Fingerprint(), demo.Query().Fingerprint());
}

TEST(DeadlineTest, GenerousDeadlineDoesNotFire) {
  ProductDemo demo;
  ChaseOptions opts;
  opts.time_limit_seconds = 60.0;
  opts.max_steps = 50;
  ChaseResult r =
      Execute(demo.graph(), {demo.Question(), opts, Algorithm::kAnsW}).result;
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.termination(), TerminationReason::kDeadline);
}

TEST(DeadlineTest, ThrowIfExpiredOnlyFiresWhenArmed) {
  Deadline never;  // default: no limit
  EXPECT_NO_THROW(never.ThrowIfExpired());
  Deadline expired = Deadline::After(0.0);
  EXPECT_THROW(expired.ThrowIfExpired(), DeadlineExceeded);
}

/// Overshoot bound: on a graph big enough that a single question takes much
/// longer than the limit, the solver must come back within a small multiple
/// of the limit rather than finishing the stragglers' Evaluate calls.
TEST(DeadlineTest, OvershootIsBoundedOnLargeGraph) {
  Graph g = GenerateGraph(DbpediaLike(0.25));
  WhyFactoryOptions fopts;
  fopts.query.num_edges = 3;
  fopts.query.max_literals = 3;
  fopts.disturb.num_ops = 3;
  fopts.seed = 1;
  std::vector<BenchCase> cases = MakeBenchCases(g, 2, fopts);
  ASSERT_FALSE(cases.empty());

  ChaseOptions opts;
  opts.time_limit_seconds = 0.05;
  opts.max_steps = 1000000;  // deadline, not the step cap, must stop us
  for (const BenchCase& c : cases) {
    Timer timer;
    ChaseResult r = Execute(g, {c.question, opts, Algorithm::kAnsW}).result;
    const double elapsed = timer.ElapsedSeconds();
    ASSERT_TRUE(r.ok());
    // Generous ceiling (40x the limit) so slow CI machines pass, yet far
    // below what an unchecked full materialization of this graph takes.
    EXPECT_LT(elapsed, 2.0) << "deadline overshoot";
    if (r.termination() == TerminationReason::kDeadline) {
      EXPECT_TRUE(r.found()) << "anytime answer lost on deadline";
    }
  }
}

TEST(DeadlineTest, HeuristicSolverReportsDeadline) {
  Graph g = GenerateGraph(DbpediaLike(0.25));
  WhyFactoryOptions fopts;
  fopts.seed = 3;
  std::vector<BenchCase> cases = MakeBenchCases(g, 1, fopts);
  ASSERT_FALSE(cases.empty());
  ChaseOptions opts;
  opts.time_limit_seconds = 1e-9;
  opts.beam = 2;
  ChaseResult r =
      Execute(g, {cases[0].question, opts, Algorithm::kAnsHeu}).result;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.termination(), TerminationReason::kDeadline);
  EXPECT_TRUE(r.found());
}

}  // namespace
}  // namespace wqe
