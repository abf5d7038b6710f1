// The parallel evaluation layer's core contract: AnsW with num_threads > 1
// returns *byte-identical* results to the serial path — same rewrites, same
// answer sets, same closeness — because all parallel stages write
// index-addressed slots and reduce in a fixed order (DESIGN.md "Parallel
// execution"). Checked end-to-end across several workload seeds, plus the
// parallel distance-index build against the serial labeling.

#include <gtest/gtest.h>

#include <sstream>

#include "chase/multi_focus.h"
#include "chase/solve.h"
#include "chase/why_not.h"
#include "gen/datasets.h"
#include "gen/product_demo.h"
#include "gen/synthetic.h"
#include "graph/distance_index.h"
#include "workload/suite.h"

namespace wqe {
namespace {

ChaseOptions BaseOptions(size_t num_threads) {
  ChaseOptions o;
  o.budget = 3;
  o.max_steps = 2000;
  o.top_k = 2;
  o.num_threads = num_threads;
  return o;
}

// Runs AnsW on every case and snapshots everything an answer reports.
struct RunSnapshot {
  std::vector<std::string> fingerprints;
  std::vector<std::vector<NodeId>> matches;
  std::vector<double> closeness;
  std::vector<double> costs;
};

RunSnapshot RunAll(const Graph& g, const std::vector<BenchCase>& cases,
                   size_t num_threads) {
  RunSnapshot snap;
  GraphIndexes indexes(g, num_threads);
  for (const BenchCase& c : cases) {
    ChaseContext ctx(g, &indexes, c.question, BaseOptions(num_threads));
    ChaseResult r = ExecuteWithContext(ctx, Algorithm::kAnsW).result;
    for (const WhyAnswer& a : r.answers) {
      snap.fingerprints.push_back(a.rewrite.Fingerprint());
      snap.matches.push_back(a.matches);
      snap.closeness.push_back(a.closeness);
      snap.costs.push_back(a.cost);
    }
  }
  return snap;
}

TEST(ParallelDeterminismTest, AnsWIdenticalAcrossThreadCounts) {
  Graph g = GenerateGraph(ImdbLike(0.04));
  for (const uint64_t seed : {7u, 77u, 777u}) {
    WhyFactoryOptions opts;
    opts.query.num_edges = 2;
    opts.disturb.num_ops = 2;
    opts.seed = seed;
    auto cases = MakeBenchCases(g, 3, opts);
    ASSERT_FALSE(cases.empty()) << "seed=" << seed;

    const RunSnapshot serial = RunAll(g, cases, 1);
    const RunSnapshot parallel = RunAll(g, cases, 4);
    EXPECT_EQ(serial.fingerprints, parallel.fingerprints) << "seed=" << seed;
    EXPECT_EQ(serial.matches, parallel.matches) << "seed=" << seed;
    // Byte-identical contract: exact double equality, no tolerance.
    EXPECT_EQ(serial.closeness, parallel.closeness) << "seed=" << seed;
    EXPECT_EQ(serial.costs, parallel.costs) << "seed=" << seed;
  }
}

TEST(ParallelDeterminismTest, HardwareConcurrencySettingMatchesSerial) {
  Graph g = GenerateGraph(DbpediaLike(0.04));
  WhyFactoryOptions opts;
  opts.query.num_edges = 2;
  opts.disturb.num_ops = 2;
  opts.seed = 5;
  auto cases = MakeBenchCases(g, 2, opts);
  ASSERT_FALSE(cases.empty());

  const RunSnapshot serial = RunAll(g, cases, 1);
  const RunSnapshot parallel = RunAll(g, cases, 0);  // 0 = hardware
  EXPECT_EQ(serial.fingerprints, parallel.fingerprints);
  EXPECT_EQ(serial.matches, parallel.matches);
  EXPECT_EQ(serial.closeness, parallel.closeness);
}

/// Deterministic fingerprint of everything a ChaseResult reports except
/// wall-clock fields (elapsed, phases) and resource telemetry.
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

// The engine contract across ALL solver bundles: the policy-driven chase is
// byte-identical whatever the verification/materialization thread count.
TEST(ParallelDeterminismTest, EveryAlgorithmIdenticalAcrossThreadCounts) {
  Graph g = GenerateGraph(ImdbLike(0.04));
  WhyFactoryOptions fopts;
  fopts.query.num_edges = 2;
  fopts.disturb.num_ops = 2;
  fopts.seed = 11;
  auto cases = MakeBenchCases(g, 2, fopts);
  ASSERT_FALSE(cases.empty());

  for (const Algorithm algo :
       {Algorithm::kAnsW, Algorithm::kAnsWE, Algorithm::kAnsHeu,
        Algorithm::kFMAnsW, Algorithm::kApxWhyM}) {
    for (const BenchCase& c : cases) {
      ChaseResult serial =
          Execute(g, {c.question, BaseOptions(1), algo}).result;
      ChaseResult parallel =
          Execute(g, {c.question, BaseOptions(4), algo}).result;
      ASSERT_TRUE(serial.ok() && parallel.ok()) << AlgorithmName(algo);
      EXPECT_EQ(ResultFingerprint(serial), ResultFingerprint(parallel))
          << AlgorithmName(algo);
    }
  }
}

TEST(ParallelDeterminismTest, MultiFocusIdenticalAcrossThreadCounts) {
  ProductDemo demo;
  MultiFocusQuestion w;
  w.query = demo.Query();
  w.foci = {0, 2};
  w.exemplars.push_back(demo.MakeExemplar());
  std::vector<NodeId> sprint = {demo.sprint()};
  w.exemplars.push_back(Exemplar::FromEntities(demo.graph(), sprint));

  auto run = [&](size_t threads) {
    ChaseOptions o;
    o.budget = 4;
    o.num_threads = threads;
    return AnsWMultiFocus(demo.graph(), w, o);
  };
  const MultiFocusResult serial = run(1);
  const MultiFocusResult parallel = run(4);
  ASSERT_EQ(serial.answers.size(), parallel.answers.size());
  for (size_t i = 0; i < serial.answers.size(); ++i) {
    EXPECT_EQ(serial.answers[i].fingerprint, parallel.answers[i].fingerprint);
    EXPECT_EQ(serial.answers[i].total_closeness,
              parallel.answers[i].total_closeness);
    EXPECT_EQ(serial.answers[i].matches_per_focus,
              parallel.answers[i].matches_per_focus);
  }
  EXPECT_EQ(serial.stats.steps, parallel.stats.steps);
  EXPECT_EQ(serial.stats.evaluations, parallel.stats.evaluations);
}

TEST(ParallelDeterminismTest, WhyNotIdenticalAcrossThreadCounts) {
  ProductDemo demo;
  auto explain = [&](size_t threads) {
    ChaseOptions o;
    o.budget = 4;
    o.num_threads = threads;
    ChaseContext ctx(demo.graph(), demo.Question(), o);
    return ExplainWhyNot(ctx, demo.p(3)).ToString(demo.graph());
  };
  EXPECT_EQ(explain(1), explain(4));
}

TEST(ParallelDeterminismTest, ParallelDistanceIndexBuildMatchesSerial) {
  Graph g = GenerateGraph(ImdbLike(0.05));
  DistanceIndex::Options serial_opts;
  DistanceIndex::Options parallel_opts;
  parallel_opts.num_threads = 4;
  DistanceIndex serial(g, serial_opts);
  DistanceIndex parallel(g, parallel_opts);
  for (NodeId u = 0; u < g.num_nodes(); u += 3) {
    for (NodeId v = 0; v < g.num_nodes(); v += 5) {
      ASSERT_EQ(serial.Distance(u, v, 6), parallel.Distance(u, v, 6))
          << "u=" << u << " v=" << v;
    }
  }
}

}  // namespace
}  // namespace wqe
