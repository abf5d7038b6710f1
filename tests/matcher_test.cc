#include "match/matcher.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "chase/eval.h"
#include "chase/multi_focus.h"
#include "chase/solve.h"
#include "chase/why_not.h"
#include "gen/datasets.h"
#include "gen/product_demo.h"
#include "gen/synthetic.h"
#include "store/artifact_store.h"
#include "store/serde.h"
#include "workload/suite.h"

namespace wqe {
namespace {

class MatcherFixture : public ::testing::Test {
 protected:
  MatcherFixture() : dist_(demo_.graph()), matcher_(demo_.graph(), &dist_) {}

  ProductDemo demo_;
  DistanceIndex dist_;
  Matcher matcher_;
};

// Example 2.1: Q(Cellphone, G) = {P1, P2, P5}.
TEST_F(MatcherFixture, PaperExampleAnswer) {
  auto answer = matcher_.Answer(demo_.Query());
  std::vector<NodeId> expected = {demo_.p(1), demo_.p(2), demo_.p(5)};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(answer, expected);
}

TEST_F(MatcherFixture, EdgeToPathMatching) {
  // P1 reaches the sensor only through the watch: bound 2 admits it,
  // bound 1 (subgraph-isomorphism semantics) does not.
  PatternQuery q = demo_.Query();
  EXPECT_TRUE(matcher_.IsMatch(q, QueryKey::Of(q), demo_.p(1)));
  const int e = q.FindEdge(q.focus(), 3);
  ASSERT_GE(e, 0);
  q.edge(static_cast<size_t>(e)).bound = 1;
  EXPECT_FALSE(matcher_.IsMatch(q, QueryKey::Of(q), demo_.p(1)));
  // Direct sensor edge.
  EXPECT_TRUE(matcher_.IsMatch(q, QueryKey::Of(q), demo_.p(2)));
}

TEST_F(MatcherFixture, FocusLiteralGatesMatch) {
  PatternQuery q = demo_.Query();
  // Price 790 < 840.
  EXPECT_FALSE(matcher_.IsMatch(q, QueryKey::Of(q), demo_.p(3)));
  EXPECT_FALSE(matcher_.IsMatch(q, QueryKey::Of(q), demo_.p(4)));
}

TEST_F(MatcherFixture, InjectivityEnforced) {
  // Two query nodes with the same label must map to distinct graph nodes:
  // a phone with two distinct carriers does not exist.
  const Graph& g = demo_.graph();
  PatternQuery q;
  QNodeId cell = q.AddNode(g.schema().LookupLabel("Cellphone"));
  QNodeId c1 = q.AddNode(g.schema().LookupLabel("Carrier"));
  QNodeId c2 = q.AddNode(g.schema().LookupLabel("Carrier"));
  q.SetFocus(cell);
  q.AddEdge(cell, c1, 1);
  q.AddEdge(cell, c2, 1);
  EXPECT_TRUE(matcher_.Answer(q).empty());
}

TEST_F(MatcherFixture, SingleNodeQueryAnswersAreCandidates) {
  const Graph& g = demo_.graph();
  PatternQuery q;
  QNodeId cell = q.AddNode(g.schema().LookupLabel("Cellphone"));
  q.SetFocus(cell);
  EXPECT_EQ(matcher_.Answer(q).size(), 6u);
}

TEST_F(MatcherFixture, ValuationsEnumerateAssignments) {
  PatternQuery q = demo_.Query();
  size_t count = 0;
  matcher_.Valuations(q, QueryKey::Of(q), demo_.p(1), 10,
                      [&](const std::vector<NodeId>& assign) {
                        ++count;
                        EXPECT_EQ(assign[q.focus()], demo_.p(1));
                        EXPECT_EQ(assign[1], demo_.samsung());
                        EXPECT_EQ(assign[2], demo_.att());
                        EXPECT_EQ(assign[3], demo_.sensor());
                        return true;
                      });
  EXPECT_EQ(count, 1u);
}

TEST_F(MatcherFixture, ValuationsRespectLimit) {
  const Graph& g = demo_.graph();
  PatternQuery q;
  QNodeId cell = q.AddNode(g.schema().LookupLabel("Cellphone"));
  QNodeId any = q.AddNode(kWildcardSymbol);
  q.SetFocus(cell);
  q.AddEdge(cell, any, 2);
  size_t count = 0;
  matcher_.Valuations(q, QueryKey::Of(q), demo_.p(1), 2,
                      [&](const std::vector<NodeId>&) {
                        ++count;
                        return true;
                      });
  EXPECT_EQ(count, 2u);
}

TEST_F(MatcherFixture, CallbackCanAbort) {
  const Graph& g = demo_.graph();
  PatternQuery q;
  QNodeId cell = q.AddNode(g.schema().LookupLabel("Cellphone"));
  QNodeId any = q.AddNode(kWildcardSymbol);
  q.SetFocus(cell);
  q.AddEdge(cell, any, 2);
  size_t count = 0;
  matcher_.Valuations(q, QueryKey::Of(q), demo_.p(1), 100,
                      [&](const std::vector<NodeId>&) {
                        ++count;
                        return false;
                      });
  EXPECT_EQ(count, 1u);
}

TEST_F(MatcherFixture, RestrictedMatchHonorsAllowedSets) {
  PatternQuery q = demo_.Query();
  std::vector<const std::vector<NodeId>*> allowed(q.num_nodes(), nullptr);
  // Restrict the carrier node to Sprint only: P1 (AT&T) no longer matches.
  std::vector<NodeId> sprint_only = {demo_.sprint()};
  allowed[2] = &sprint_only;
  const Matcher::MatchPlan& plan = matcher_.PlanFor(q, QueryKey::Of(q));
  EXPECT_FALSE(matcher_.IsMatchRestricted(q, plan, demo_.p(1), allowed));
  EXPECT_TRUE(matcher_.IsMatchRestricted(q, plan, demo_.p(5), allowed));
}

TEST_F(MatcherFixture, DirectionMatters) {
  const Graph& g = demo_.graph();
  PatternQuery q;
  QNodeId carrier = q.AddNode(g.schema().LookupLabel("Carrier"));
  QNodeId cell = q.AddNode(g.schema().LookupLabel("Cellphone"));
  q.SetFocus(carrier);
  // Edge carrier -> cell does not exist in G (phones point at carriers).
  q.AddEdge(carrier, cell, 1);
  EXPECT_TRUE(matcher_.Answer(q).empty());
  // Reversed: every carrier with an in-edge from a phone matches.
  PatternQuery q2;
  QNodeId carrier2 = q2.AddNode(g.schema().LookupLabel("Carrier"));
  QNodeId cell2 = q2.AddNode(g.schema().LookupLabel("Cellphone"));
  q2.SetFocus(carrier2);
  q2.AddEdge(cell2, carrier2, 1);
  EXPECT_EQ(q2.FindEdge(cell2, carrier2), 0);
  EXPECT_EQ(matcher_.Answer(q2).size(), 2u);
}

TEST_F(MatcherFixture, StatsAccumulate) {
  matcher_.Answer(demo_.Query());
  EXPECT_GT(matcher_.stats().focus_verifications, 0u);
  EXPECT_GT(matcher_.stats().node_expansions, 0u);
}

// --- Match pipeline parity (DESIGN.md "Match pipeline"): the compiled
// --- filter-plan pipeline must be an invisible substitution — byte-identical
// --- answers with the pipeline on or off, at any thread count, and whether
// --- the graph is heap-built or mmap-attached from a store v2 bundle.

TEST_F(MatcherFixture, PipelineTogglePreservesAnswers) {
  const Graph& g = demo_.graph();
  PatternQuery wildcard;
  QNodeId any = wildcard.AddNode(kWildcardSymbol);
  wildcard.SetFocus(any);
  wildcard.AddLiteral(
      any, {g.schema().LookupAttr("discount"), CmpOp::kGe, Value::Num(20)});
  for (const PatternQuery& q : {demo_.Query(), wildcard}) {
    matcher_.set_use_pipeline(false);
    const auto interpreted = matcher_.Answer(q);
    matcher_.set_use_pipeline(true);
    const auto compiled = matcher_.Answer(q);
    EXPECT_EQ(interpreted, compiled);
  }
}

ChaseOptions ParityOptions(bool use_pipeline, size_t num_threads) {
  ChaseOptions o;
  o.budget = 3;
  o.max_steps = 2000;
  o.top_k = 2;
  o.num_threads = num_threads;
  o.use_match_pipeline = use_pipeline;
  return o;
}

/// Deterministic fingerprint of everything a ChaseResult reports except
/// wall-clock fields and resource telemetry (mirrors
/// parallel_determinism_test.cc — byte-identity, not tolerance).
std::string ResultFingerprint(const ChaseResult& r) {
  std::ostringstream out;
  out << static_cast<int>(r.termination()) << '|' << r.stats.steps << '|'
      << r.stats.evaluations << '|' << r.stats.ops_generated << '|'
      << r.stats.pruned << '|' << r.cl_star << '\n';
  for (const WhyAnswer& a : r.answers) {
    out << a.fingerprint << '|' << a.cost << '|' << a.closeness << '|'
        << a.satisfies_exemplar << '|';
    for (NodeId v : a.matches) out << v << ',';
    out << '\n';
  }
  return out.str();
}

// Every solver bundle, pipeline on/off, serial and parallel: one contract.
TEST(MatchPipelineParityTest, EveryAlgorithmIdenticalPipelineOnOff) {
  Graph g = GenerateGraph(ImdbLike(0.04));
  WhyFactoryOptions fopts;
  fopts.query.num_edges = 2;
  fopts.query.max_literals = 5;  // literal-heavy: exercise the merged walk
  fopts.disturb.num_ops = 2;
  fopts.seed = 21;
  auto cases = MakeBenchCases(g, 2, fopts);
  ASSERT_FALSE(cases.empty());

  for (const Algorithm algo :
       {Algorithm::kAnsW, Algorithm::kAnsWE, Algorithm::kAnsHeu,
        Algorithm::kFMAnsW, Algorithm::kApxWhyM}) {
    for (const BenchCase& c : cases) {
      const ChaseResult interp =
          Execute(g, {c.question, ParityOptions(false, 1), algo}).result;
      ASSERT_TRUE(interp.ok()) << AlgorithmName(algo);
      const std::string want = ResultFingerprint(interp);
      for (const size_t threads : {size_t{1}, size_t{4}}) {
        const ChaseResult piped =
            Execute(g, {c.question, ParityOptions(true, threads), algo}).result;
        ASSERT_TRUE(piped.ok()) << AlgorithmName(algo);
        EXPECT_EQ(want, ResultFingerprint(piped))
            << AlgorithmName(algo) << " threads=" << threads;
      }
    }
  }
}

TEST(MatchPipelineParityTest, MultiFocusIdenticalPipelineOnOff) {
  ProductDemo demo;
  MultiFocusQuestion w;
  w.query = demo.Query();
  w.foci = {0, 2};
  w.exemplars.push_back(demo.MakeExemplar());
  std::vector<NodeId> sprint = {demo.sprint()};
  w.exemplars.push_back(Exemplar::FromEntities(demo.graph(), sprint));

  auto run = [&](bool use_pipeline) {
    ChaseOptions o;
    o.budget = 4;
    o.use_match_pipeline = use_pipeline;
    return AnsWMultiFocus(demo.graph(), w, o);
  };
  const MultiFocusResult interp = run(false);
  const MultiFocusResult piped = run(true);
  ASSERT_EQ(interp.answers.size(), piped.answers.size());
  for (size_t i = 0; i < interp.answers.size(); ++i) {
    EXPECT_EQ(interp.answers[i].fingerprint, piped.answers[i].fingerprint);
    EXPECT_EQ(interp.answers[i].total_closeness,
              piped.answers[i].total_closeness);
    EXPECT_EQ(interp.answers[i].matches_per_focus,
              piped.answers[i].matches_per_focus);
  }
  EXPECT_EQ(interp.stats.steps, piped.stats.steps);
  EXPECT_EQ(interp.stats.evaluations, piped.stats.evaluations);
}

TEST(MatchPipelineParityTest, WhyNotIdenticalPipelineOnOff) {
  ProductDemo demo;
  auto explain = [&](bool use_pipeline) {
    ChaseOptions o;
    o.budget = 4;
    o.use_match_pipeline = use_pipeline;
    ChaseContext ctx(demo.graph(), demo.Question(), o);
    return ExplainWhyNot(ctx, demo.p(3)).ToString(demo.graph());
  };
  EXPECT_EQ(explain(false), explain(true));
}

// Heap-built vs mmap-attached (Graph::Attach via the store v2 bundle): the
// pipeline's plans compile from the graph *view*, so the storage substrate
// must not leak into answers either.
class PipelineMmapFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/wqe_pipeline_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  ProductDemo demo_;
};

TEST_F(PipelineMmapFixture, HeapAndMappedAnswersIdentical) {
  const Graph& g = demo_.graph();
  store::ArtifactStore store(dir_, store::Serde::GraphFingerprint(g));
  GraphIndexes heap(g, /*num_threads=*/1);
  ASSERT_TRUE(store
                  .SaveBundle(g, heap.adom, heap.diameter, heap.dist,
                              DistanceIndex::Options())
                  .ok());
  std::unique_ptr<MappedServingState> mapped;
  ASSERT_TRUE(OpenServingState(store, DistanceIndex::Options(),
                               store::BundleOpenOptions(), &mapped)
                  .ok());
  ASSERT_TRUE(mapped->graph().attached());

  for (const Algorithm algo :
       {Algorithm::kAnsW, Algorithm::kAnsWE, Algorithm::kAnsHeu,
        Algorithm::kFMAnsW, Algorithm::kApxWhyM}) {
    Request req;
    req.question = demo_.Question();
    req.options = ParityOptions(true, 1);
    req.algorithm = algo;
    const Response heap_resp = Execute(g, &heap, nullptr, nullptr, req);
    const Response mapped_resp =
        Execute(mapped->graph(), &mapped->indexes, nullptr, nullptr, req);
    ASSERT_TRUE(heap_resp.ok() && mapped_resp.ok()) << AlgorithmName(algo);
    EXPECT_EQ(ResultFingerprint(heap_resp.result),
              ResultFingerprint(mapped_resp.result))
        << AlgorithmName(algo);
  }
}

}  // namespace
}  // namespace wqe
