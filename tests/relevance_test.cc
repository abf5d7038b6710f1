#include "exemplar/relevance.h"

#include <gtest/gtest.h>

#include <span>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.h"
#include "gen/product_demo.h"

namespace wqe {
namespace {

class RelevanceFixture : public ::testing::Test {
 protected:
  RelevanceFixture() : adom_(demo_.graph()), eval_(demo_.graph(), adom_) {
    const LabelId cell = demo_.graph().schema().LookupLabel("Cellphone");
    const std::span<const NodeId> bucket = demo_.graph().NodesWithLabel(cell);
    universe_.assign(bucket.begin(), bucket.end());
    rep_ = ComputeRep(eval_, demo_.MakeExemplar(), universe_);
  }

  ProductDemo demo_;
  ActiveDomains adom_;
  ClosenessEvaluator eval_;
  std::vector<NodeId> universe_;
  RepResult rep_;
};

// The 2x2 table of §2.2 on the paper's example: Q(G) = {P1, P2, P5},
// rep = {P3, P4, P5}.
TEST_F(RelevanceFixture, PaperExampleClassification) {
  std::vector<NodeId> matches = {demo_.p(1), demo_.p(2), demo_.p(5)};
  std::sort(matches.begin(), matches.end());
  RelevanceSets sets = Classify(universe_, matches, rep_);

  ASSERT_EQ(sets.rm.size(), 1u);
  EXPECT_EQ(sets.rm[0], demo_.p(5));
  EXPECT_EQ(sets.im.size(), 2u);  // P1, P2
  EXPECT_EQ(sets.rc.size(), 2u);  // P3, P4
  EXPECT_EQ(sets.num_candidates, 6u);  // + P6, the one IC

  EXPECT_EQ(sets.StatusOf(demo_.p(5)), Relevance::kRM);
  EXPECT_EQ(sets.StatusOf(demo_.p(1)), Relevance::kIM);
  EXPECT_EQ(sets.StatusOf(demo_.p(3)), Relevance::kRC);
  EXPECT_EQ(sets.StatusOf(demo_.p(6)), Relevance::kIC);
}

TEST_F(RelevanceFixture, AnswerClosenessFormula) {
  std::vector<NodeId> matches = {demo_.p(1), demo_.p(2), demo_.p(5)};
  std::sort(matches.begin(), matches.end());
  RelevanceSets sets = Classify(universe_, matches, rep_);
  // (cl(P5) - λ * 2) / 6 = (1 - 2) / 6 with λ = 1.
  EXPECT_NEAR(sets.AnswerCloseness(1.0), -1.0 / 6.0, 1e-12);
  // λ = 0 ignores irrelevant matches.
  EXPECT_NEAR(sets.AnswerCloseness(0.0), 1.0 / 6.0, 1e-12);
}

TEST_F(RelevanceFixture, PaperExampleRewriteCloseness) {
  // Q'(G) = {P3, P4, P5}: closeness 3/6 = 1/2 (Example 3.1).
  std::vector<NodeId> matches = {demo_.p(3), demo_.p(4), demo_.p(5)};
  std::sort(matches.begin(), matches.end());
  RelevanceSets sets = Classify(universe_, matches, rep_);
  EXPECT_NEAR(sets.AnswerCloseness(1.0), 0.5, 1e-12);
  EXPECT_NEAR(sets.UpperBound(), 0.5, 1e-12);
}

TEST_F(RelevanceFixture, UpperBoundIgnoresPenalty) {
  std::vector<NodeId> matches = {demo_.p(1), demo_.p(2), demo_.p(5)};
  std::sort(matches.begin(), matches.end());
  RelevanceSets sets = Classify(universe_, matches, rep_);
  EXPECT_NEAR(sets.UpperBound(), 1.0 / 6.0, 1e-12);
  EXPECT_GE(sets.UpperBound(), sets.AnswerCloseness(1.0));
}

TEST_F(RelevanceFixture, TheoreticalOptimal) {
  // cl* = Σ cl(rep) / |V_uo| = 3/6 (Remarks of §3).
  EXPECT_NEAR(TheoreticalOptimal(rep_, universe_.size()), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(TheoreticalOptimal(rep_, 0), 0.0);
}

TEST_F(RelevanceFixture, EmptyMatchesAllCandidatesSplitRcIc) {
  RelevanceSets sets = Classify(universe_, {}, rep_);
  EXPECT_TRUE(sets.rm.empty());
  EXPECT_TRUE(sets.im.empty());
  EXPECT_EQ(sets.rc.size(), 3u);
  EXPECT_EQ(sets.num_candidates - sets.rc.size(), 3u);  // IC
  EXPECT_DOUBLE_EQ(sets.AnswerCloseness(1.0), 0.0);
}

// The §2.2 split through hash sets, one probe per candidate: the reference
// for the merge-based Classify. The irrelevant candidates go to `ic`.
RelevanceSets ReferenceClassify(const std::vector<NodeId>& candidates,
                                const std::vector<NodeId>& matches,
                                const RepResult& rep,
                                std::vector<NodeId>* ic) {
  const std::unordered_set<NodeId> match_set(matches.begin(), matches.end());
  std::unordered_map<NodeId, double> rep_cl;
  for (size_t i = 0; i < rep.nodes.size(); ++i) {
    rep_cl.emplace(rep.nodes[i], rep.closeness[i]);
  }
  RelevanceSets sets;
  sets.num_candidates = candidates.size();
  for (NodeId v : candidates) {
    const bool is_match = match_set.count(v) > 0;
    const auto rep_it = rep_cl.find(v);
    const bool is_rep = rep_it != rep_cl.end();
    if (is_match && is_rep) {
      sets.rm.push_back(v);
      sets.rm_closeness_sum += rep_it->second;
    } else if (is_match) {
      sets.im.push_back(v);
    } else if (is_rep) {
      sets.rc.push_back(v);
    } else {
      ic->push_back(v);
    }
  }
  return sets;
}

Relevance ReferenceStatus(NodeId v, const std::vector<NodeId>& matches,
                          const RepResult& rep) {
  const bool is_match =
      std::find(matches.begin(), matches.end(), v) != matches.end();
  const bool is_rep = rep.Contains(v);
  if (is_match) return is_rep ? Relevance::kRM : Relevance::kIM;
  return is_rep ? Relevance::kRC : Relevance::kIC;
}

TEST(ClassifyMergeTest, AgreesWithHashSetReferenceOnRandomSortedInputs) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    // Ascending inputs over a small id range. Matches and rep members lie
    // inside the universe, as Classify requires (V_{u_o} holds every match
    // and every rep node).
    const NodeId range = static_cast<NodeId>(1 + rng.Index(120));
    const double density = rng.Double(0, 1);
    std::vector<NodeId> universe, matches;
    RepResult rep;
    for (NodeId v = 0; v < range; ++v) {
      if (!rng.Chance(density)) continue;
      universe.push_back(v);
      const double p = rng.Double(0, 1);
      if (rng.Chance(p)) matches.push_back(v);
      if (rng.Chance(p)) {
        rep.nodes.push_back(v);
        rep.closeness.push_back(rng.Double(0, 1));
      }
    }
    const RelevanceSets got = Classify(universe, matches, rep);
    std::vector<NodeId> want_ic;
    const RelevanceSets want =
        ReferenceClassify(universe, matches, rep, &want_ic);
    ASSERT_EQ(got.rm, want.rm) << "trial=" << trial;
    ASSERT_EQ(got.im, want.im) << "trial=" << trial;
    ASSERT_EQ(got.rc, want.rc) << "trial=" << trial;
    ASSERT_EQ(got.num_candidates, want.num_candidates);
    // IC is implied: every candidate in no other class.
    ASSERT_EQ(got.num_candidates - got.rm.size() - got.im.size() -
                  got.rc.size(),
              want_ic.size())
        << "trial=" << trial;
    // Bit-equal, not just close: cl and cl⁺ must not move.
    ASSERT_EQ(got.rm_closeness_sum, want.rm_closeness_sum) << "trial=" << trial;
    for (NodeId v : universe) {
      ASSERT_EQ(got.StatusOf(v), ReferenceStatus(v, matches, rep))
          << "trial=" << trial << " v=" << v;
    }
  }
}

}  // namespace
}  // namespace wqe
