// The parallel evaluation layer's core contract: AnsW with num_threads > 1
// returns *byte-identical* results to the serial path — same rewrites, same
// answer sets, same closeness — because all parallel stages write
// index-addressed slots and reduce in a fixed order (DESIGN.md "Parallel
// execution"). Checked end-to-end across several workload seeds, plus the
// parallel distance-index build against the serial labeling.

#include <gtest/gtest.h>

#include <sstream>

#include "chase/multi_focus.h"
#include "chase/picky_refine.h"
#include "chase/solve.h"
#include "chase/why_not.h"
#include "gen/datasets.h"
#include "gen/product_demo.h"
#include "gen/synthetic.h"
#include "graph/distance_index.h"
#include "match/star_matcher.h"
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

// The MatchStats counters that depend only on which probes run — not on
// which matcher ran them or what its plan and ball memos held.
std::vector<uint64_t> ProbeCounts(const MatchStats& s) {
  return {s.focus_verifications, s.node_expansions, s.forward_prunes,
          s.candidates_seeded, s.candidates_filtered};
}

std::vector<uint64_t> Minus(std::vector<uint64_t> a,
                            const std::vector<uint64_t>& b) {
  for (size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
  return a;
}

// Probes sharded over a matcher's workers are counted on the caller: the
// workers' stats merge into it, so the probe counters read the same at 1
// and 4 threads on every sharded path.
TEST(ParallelDeterminismTest, WorkerStatsMergeIntoTheCaller) {
  Graph g = GenerateGraph(ImdbLike(0.04));
  WhyFactoryOptions fopts;
  fopts.query.num_edges = 2;
  fopts.disturb.num_ops = 2;
  fopts.seed = 7;
  auto cases = MakeBenchCases(g, 3, fopts);
  ASSERT_FALSE(cases.empty());
  GraphIndexes indexes(g, 1);

  // Matcher::Answer.
  std::vector<uint64_t> answer_counts[2];
  std::vector<std::vector<NodeId>> answers[2];
  // StarMatcher::Evaluate (no view cache: every evaluation builds tables).
  std::vector<uint64_t> evaluate_counts[2];
  std::vector<std::vector<NodeId>> evaluations[2];
  // GenerateRefineOps on each root (witness collection).
  std::vector<uint64_t> refine_counts[2];
  std::vector<std::vector<double>> pickiness[2];
  for (const size_t t : {0, 1}) {
    const size_t threads = t == 0 ? 1 : 4;
    Matcher m(g, &indexes.dist);
    StarMatcher sm(g, &indexes.dist, nullptr);
    sm.set_num_threads(threads);
    std::vector<uint64_t> refine_total(5, 0);
    for (const BenchCase& c : cases) {
      answers[t].push_back(m.Answer(c.question.query, threads));
      evaluations[t].push_back(sm.Evaluate(c.question.query).matches);

      ChaseContext ctx(g, &indexes, c.question, BaseOptions(threads));
      MatchStats& stats = ctx.star_matcher().matcher().stats();
      const std::vector<uint64_t> before = ProbeCounts(stats);
      std::vector<double> scores;
      for (const ScoredOp& so : GenerateRefineOps(ctx, *ctx.root())) {
        scores.push_back(so.pickiness);
      }
      pickiness[t].push_back(std::move(scores));
      const std::vector<uint64_t> delta = Minus(ProbeCounts(stats), before);
      for (size_t i = 0; i < delta.size(); ++i) refine_total[i] += delta[i];
    }
    answer_counts[t] = ProbeCounts(m.stats());
    evaluate_counts[t] = ProbeCounts(sm.matcher().stats());
    refine_counts[t] = refine_total;
  }
  EXPECT_EQ(answers[0], answers[1]);
  EXPECT_EQ(evaluations[0], evaluations[1]);
  EXPECT_EQ(pickiness[0], pickiness[1]);
  // Enough probes to spread over several slots at 4 threads.
  EXPECT_GT(answer_counts[0][0], 100u);
  EXPECT_GT(evaluate_counts[0][0], 100u);
  EXPECT_GT(refine_counts[0][0], 20u);
  EXPECT_EQ(answer_counts[0], answer_counts[1]);
  EXPECT_EQ(evaluate_counts[0], evaluate_counts[1]);
  EXPECT_EQ(refine_counts[0], refine_counts[1]);
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
