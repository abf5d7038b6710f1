#include "match/candidates.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "gen/datasets.h"
#include "gen/product_demo.h"
#include "gen/synthetic.h"
#include "match/candidate_set.h"
#include "match/filter_plan.h"
#include "workload/query_gen.h"

namespace wqe {
namespace {

TEST(CandidatesTest, LabelAndLiteralFiltering) {
  ProductDemo demo;
  const Graph& g = demo.graph();
  PatternQuery q = demo.Query();

  // Focus: Cellphone with price >= 840 -> P1, P2, P5.
  auto focus_cands = ComputeCandidates(g, q, q.focus());
  EXPECT_EQ(focus_cands.size(), 3u);
  for (NodeId v : focus_cands) {
    EXPECT_TRUE(IsCandidate(g, q, q.focus(), v));
  }

  // Carrier node (no literals): both carriers.
  auto carrier_cands = ComputeCandidates(g, q, 2);
  EXPECT_EQ(carrier_cands.size(), 2u);
}

TEST(CandidatesTest, WildcardLabelMatchesEverything) {
  ProductDemo demo;
  PatternQuery q;
  QNodeId u = q.AddNode(kWildcardSymbol);
  q.SetFocus(u);
  auto cands = ComputeCandidates(demo.graph(), q, u);
  EXPECT_EQ(cands.size(), demo.graph().num_nodes());
}

TEST(CandidatesTest, WildcardLabelWithLiteral) {
  ProductDemo demo;
  const Graph& g = demo.graph();
  PatternQuery q;
  QNodeId u = q.AddNode(kWildcardSymbol);
  q.SetFocus(u);
  q.AddLiteral(u, {g.schema().LookupAttr("discount"), CmpOp::kGe, Value::Num(20)});
  auto cands = ComputeCandidates(g, q, u);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0], demo.sprint());
}

TEST(CandidatesTest, CandidatesAreSorted) {
  ProductDemo demo;
  PatternQuery q = demo.Query();
  auto cands = ComputeCandidates(demo.graph(), q, q.focus());
  EXPECT_TRUE(std::is_sorted(cands.begin(), cands.end()));
}

// --- Compiled filter plans: the pipeline's probe must be interchangeable
// --- with the interpreted IsCandidate bit for bit.

TEST(FilterPlanTest, AdmitsAgreesWithIsCandidateOnDemo) {
  ProductDemo demo;
  const Graph& g = demo.graph();
  PatternQuery q = demo.Query();
  const match::QueryFilterPlans plans = match::QueryFilterPlans::Compile(q);
  for (QNodeId u = 0; u < q.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(plans.at(u).Admits(g.view(), v), IsCandidate(g, q, u, v))
          << "u=" << u << " v=" << v;
    }
  }
}

TEST(FilterPlanTest, AdmitsAgreesWithIsCandidateOnGeneratedWorkloads) {
  for (const GraphSpec& spec : {ImdbLike(0.03), DbpediaLike(0.03)}) {
    Graph g = GenerateGraph(spec);
    for (const uint64_t seed : {3u, 33u, 333u}) {
      QueryGenOptions opts;
      opts.max_literals = 5;  // literal-heavy: multi-literal merged walks
      opts.seed = seed;
      auto q = GenerateGroundTruthQuery(g, opts);
      ASSERT_TRUE(q.has_value()) << "seed=" << seed;
      const match::QueryFilterPlans plans =
          match::QueryFilterPlans::Compile(*q);
      for (QNodeId u = 0; u < q->num_nodes(); ++u) {
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          ASSERT_EQ(plans.at(u).Admits(g.view(), v), IsCandidate(g, *q, u, v))
              << "seed=" << seed << " u=" << u << " v=" << v;
        }
      }
    }
  }
}

TEST(FilterPlanTest, CompiledCandidatesMatchInterpretedAndCountSeeds) {
  Graph g = GenerateGraph(ImdbLike(0.03));
  QueryGenOptions opts;
  opts.seed = 9;
  auto q = GenerateGroundTruthQuery(g, opts);
  ASSERT_TRUE(q.has_value());
  for (QNodeId u = 0; u < q->num_nodes(); ++u) {
    const match::FilterPlan plan = match::FilterPlan::Compile(q->node(u));
    uint64_t seeded = 0;
    const auto compiled = match::ComputeCandidatesCompiled(g, plan, &seeded);
    EXPECT_EQ(compiled, ComputeCandidates(g, *q, u)) << "u=" << u;
    const size_t bucket = plan.label() == kWildcardSymbol
                              ? g.num_nodes()
                              : g.NodesWithLabel(plan.label()).size();
    EXPECT_EQ(seeded, bucket) << "u=" << u;  // stage-1 funnel = seed size
    EXPECT_LE(compiled.size(), bucket);
  }
}

TEST(FilterPlanTest, LiteralHoldsAgreesWithLiteralMatches) {
  ProductDemo demo;
  const Graph& g = demo.graph();
  const AttrId price = g.schema().LookupAttr("price");
  const AttrId discount = g.schema().LookupAttr("discount");
  const std::vector<Literal> lits = {
      {price, CmpOp::kGe, Value::Num(840)},
      {price, CmpOp::kLt, Value::Num(840)},
      {price, CmpOp::kEq, Value::Num(790)},
      {discount, CmpOp::kEq, Value()},  // wildcard: presence only
      {discount, CmpOp::kGt, Value::Num(10)},
  };
  for (const Literal& lit : lits) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(match::LiteralHolds(g, v, lit), lit.Matches(g, v))
          << "attr=" << lit.attr << " v=" << v;
    }
  }
}

TEST(FilterPlanTest, NodeFingerprintIsTheCanonicalSignature) {
  ProductDemo demo;
  const Graph& g = demo.graph();
  PatternQuery q = demo.Query();
  // Sorted literal keys, "attr#op#value" entries, numeric rendering — the
  // exact legacy star-signature node encoding (persisted star-view caches
  // key on it, so the format is load-bearing).
  const QueryNode& focus = q.node(q.focus());
  std::string fp = match::FilterPlan::NodeFingerprint(focus);
  EXPECT_EQ(fp.find('L'), 0u);
  EXPECT_NE(fp.find('('), std::string::npos);
  EXPECT_EQ(fp.back(), ')');
  EXPECT_EQ(fp, match::FilterPlan::Compile(focus).fingerprint());
  // Literal order must not matter: the fingerprint sorts its keys.
  PatternQuery q2;
  QNodeId a = q2.AddNode(focus.label);
  PatternQuery q3;
  QNodeId b = q3.AddNode(focus.label);
  const AttrId price = g.schema().LookupAttr("price");
  const AttrId discount = g.schema().LookupAttr("discount");
  q2.AddLiteral(a, {price, CmpOp::kGe, Value::Num(1)});
  q2.AddLiteral(a, {discount, CmpOp::kGe, Value::Num(2)});
  q3.AddLiteral(b, {discount, CmpOp::kGe, Value::Num(2)});
  q3.AddLiteral(b, {price, CmpOp::kGe, Value::Num(1)});
  EXPECT_EQ(match::FilterPlan::NodeFingerprint(q2.node(a)),
            match::FilterPlan::NodeFingerprint(q3.node(b)));
}

// --- Selection-vector kernels: reserve-aware merges vs std oracles.

TEST(CandidateSetTest, KernelsMatchStdOracles) {
  const std::vector<NodeId> a = {1, 3, 5, 7, 9, 120, 4000};
  const std::vector<NodeId> b = {2, 3, 7, 100, 120, 5000};
  std::vector<NodeId> diff, uni, inter;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(diff));
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(uni));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(inter));
  EXPECT_EQ(match::CandidateSet::Difference(a, b), diff);
  EXPECT_EQ(match::CandidateSet::Union(a, b), uni);
  EXPECT_EQ(match::CandidateSet::Intersection(a, b), inter);
  // Degenerate shapes.
  const std::vector<NodeId> empty;
  EXPECT_EQ(match::CandidateSet::Difference(a, empty), a);
  EXPECT_TRUE(match::CandidateSet::Difference(empty, a).empty());
  EXPECT_EQ(match::CandidateSet::Union(a, empty), a);
  EXPECT_TRUE(match::CandidateSet::Intersection(a, empty).empty());
  EXPECT_TRUE(match::CandidateSet::Difference(a, a).empty());
  EXPECT_EQ(match::CandidateSet::Union(a, a), a);
  EXPECT_EQ(match::CandidateSet::Intersection(a, a), a);
}

}  // namespace
}  // namespace wqe
