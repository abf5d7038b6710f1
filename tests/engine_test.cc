// Unit pins for the Q-Chase engine's shared primitives: the one budget
// predicate (engine::WithinBudget), the loop-head deadline poller
// (DeadlineGovernor: first-call poll, stride, latch — the documented
// overshoot bound; the end-to-end bound rides in deadline_test.cc), and the
// two TopK variants the solver bundles configure.

#include "chase/engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/timer.h"

namespace wqe::engine {
namespace {

// ---------------------------------------------------------------- WithinBudget

TEST(WithinBudgetTest, ExactBoundaryIsFeasible) {
  EXPECT_TRUE(WithinBudget(3.0, 3.0));
  EXPECT_TRUE(WithinBudget(0.0, 0.0));
  EXPECT_TRUE(WithinBudget(2.0, 3.0));
}

TEST(WithinBudgetTest, EpsilonSlackAbsorbsCostAccumulationNoise) {
  // Summed operator costs may land a rounding error above B; anything within
  // kEps of the boundary still counts as feasible.
  EXPECT_TRUE(WithinBudget(3.0 + 0.5 * kEps, 3.0));
  EXPECT_TRUE(WithinBudget(3.0 + kEps, 3.0));
}

TEST(WithinBudgetTest, BeyondEpsilonIsInfeasible) {
  EXPECT_FALSE(WithinBudget(3.0 + 3.0 * kEps, 3.0));
  EXPECT_FALSE(WithinBudget(3.0001, 3.0));
  EXPECT_FALSE(WithinBudget(1.0, 0.0));
}

// ------------------------------------------------------------ DeadlineGovernor

TEST(DeadlineGovernorTest, StrideConstantPinsTheOvershootBound) {
  // The documented overshoot bound — at most stride-1 iterations between
  // polls — is calibrated for this stride; a change must revisit the
  // DeadlineGovernor comment and deadline_test.cc's end-to-end ceiling.
  EXPECT_EQ(kDeadlineCheckStride, 32u);
}

TEST(DeadlineGovernorTest, FirstCallPollsTheClock) {
  // An already-expired deadline is detected before any work is attempted,
  // whatever the stride.
  Deadline expired = Deadline::After(0.0);
  DeadlineGovernor governor(expired, /*stride=*/1000000);
  EXPECT_TRUE(governor.Expired());
}

TEST(DeadlineGovernorTest, UnarmedDeadlineNeverExpires) {
  Deadline never;
  DeadlineGovernor governor(never, /*stride=*/2);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(governor.Expired());
}

TEST(DeadlineGovernorTest, LatchesOnceExpired) {
  Deadline expired = Deadline::After(0.0);
  DeadlineGovernor governor(expired);
  ASSERT_TRUE(governor.Expired());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(governor.Expired());
}

TEST(DeadlineGovernorTest, PollsOnlyOnTheStride) {
  constexpr size_t kStride = 8;
  Deadline deadline = Deadline::After(0.05);
  DeadlineGovernor governor(deadline, kStride);
  if (governor.Expired()) GTEST_SKIP() << "machine stalled before first poll";
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  // Calls 2..kStride reuse the stale first poll: the expiry is invisible
  // until the next stride boundary — the engine's bounded overshoot.
  for (size_t call = 2; call <= kStride; ++call) {
    EXPECT_FALSE(governor.Expired()) << "call " << call;
  }
  EXPECT_TRUE(governor.Expired());  // call kStride+1 lands on the stride
}

// ------------------------------------------------------------------------ TopK

EvalResult MakeEval(LabelId label, double cl, double cost,
                    bool satisfies = true) {
  EvalResult eval;
  eval.query.SetFocus(eval.query.AddNode(label));
  eval.key = QueryKey::Of(eval.query);
  eval.cl = cl;
  eval.cost = cost;
  eval.satisfies_exemplar = satisfies;
  return eval;
}

TEST(TopKTest, RejectsSigmaInconsistentAnswers) {
  TopK topk;
  topk.Configure(2, true, true);
  EXPECT_FALSE(topk.Offer(MakeEval(1, 0.9, 1.0, /*satisfies=*/false)));
  EXPECT_EQ(topk.size(), 0u);
}

TEST(TopKTest, ReportsBestImprovementsAndThreshold) {
  TopK topk;
  topk.Configure(2, true, true);
  EXPECT_EQ(topk.PruneThreshold(), -1e18);  // below k answers: no pruning
  EXPECT_TRUE(topk.Offer(MakeEval(1, 0.5, 1.0)));    // first answer improves
  EXPECT_FALSE(topk.Offer(MakeEval(2, 0.3, 1.0)));   // fills k, best unchanged
  EXPECT_TRUE(topk.Offer(MakeEval(3, 0.9, 1.0)));    // new best
  EXPECT_DOUBLE_EQ(topk.BestCloseness(), 0.9);
  // cl(Q*_k): the k-th best closeness once k answers are known.
  EXPECT_DOUBLE_EQ(topk.PruneThreshold(), 0.5);
  EXPECT_EQ(topk.size(), 2u);
}

TEST(TopKTest, AnsWVariantUpdatesDuplicateReachedMoreCheaply) {
  TopK topk;
  topk.Configure(2, /*update_cheaper_duplicate=*/true, /*cost_tiebreak=*/true);
  EXPECT_TRUE(topk.Offer(MakeEval(1, 0.5, 3.0)));
  // Same rewrite, cheaper derivation: not a new answer, but the stored cost
  // drops to the cheaper path.
  EXPECT_FALSE(topk.Offer(MakeEval(1, 0.5, 1.0)));
  std::vector<WhyAnswer> answers = topk.Take();
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_DOUBLE_EQ(answers[0].cost, 1.0);
}

TEST(TopKTest, BeamVariantKeepsFirstDerivation) {
  TopK topk;
  topk.Configure(2, /*update_cheaper_duplicate=*/false, /*cost_tiebreak=*/false);
  EXPECT_TRUE(topk.Offer(MakeEval(1, 0.5, 3.0)));
  EXPECT_FALSE(topk.Offer(MakeEval(1, 0.5, 1.0)));
  std::vector<WhyAnswer> answers = topk.Take();
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_DOUBLE_EQ(answers[0].cost, 3.0);
}

TEST(TopKTest, CostTiebreakRanksEqualClosenessCheapestFirst) {
  TopK with;
  with.Configure(2, true, /*cost_tiebreak=*/true);
  with.Offer(MakeEval(1, 0.5, 3.0));
  with.Offer(MakeEval(2, 0.5, 1.0));
  EXPECT_DOUBLE_EQ(with.Take().front().cost, 1.0);

  TopK without;
  without.Configure(2, false, /*cost_tiebreak=*/false);
  without.Offer(MakeEval(1, 0.5, 3.0));
  without.Offer(MakeEval(2, 0.5, 1.0));
  // Stable: insertion order decides among equal closeness.
  EXPECT_DOUBLE_EQ(without.Take().front().cost, 3.0);
}

}  // namespace
}  // namespace wqe::engine
