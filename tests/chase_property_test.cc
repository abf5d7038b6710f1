// Cross-cutting property sweeps over randomized workloads: normal-form
// equivalence (Lemma 4.1), AnsW answer invariants (Theorem 4.3 obligations),
// the Q(G) ⊨ ℰ verdict against the full Lemma 2.2 procedure, and
// closeness-measure sanity on every dataset preset.

#include <gtest/gtest.h>

#include <optional>

#include "chase/next_op.h"
#include "chase/solve.h"
#include "common/rng.h"
#include "gen/datasets.h"
#include "gen/synthetic.h"
#include "workload/disturb.h"
#include "workload/why_factory.h"

namespace wqe {
namespace {

// ---- Lemma 4.1: a canonical operator sequence and its normal form rewrite
// a query identically. Random sequences are drawn via the disturber (whose
// outputs are applicable by construction) and filtered to canonical ones.

class NormalFormPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(NormalFormPropertyTest, CanonicalSequenceEqualsItsNormalForm) {
  Graph g = GenerateGraph(ImdbLike(0.03, 100 + static_cast<uint64_t>(GetParam())));
  ActiveDomains adom(g);
  DistanceIndex dist(g);
  Matcher matcher(g, &dist);

  size_t checked = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    QueryGenOptions qopts;
    qopts.seed = seed * 13 + static_cast<uint64_t>(GetParam());
    qopts.num_edges = 2 + seed % 3;
    auto gt = GenerateGroundTruthQuery(g, matcher, qopts);
    if (!gt.has_value()) continue;

    DisturbOptions dopts;
    dopts.seed = seed * 31;
    dopts.num_ops = 4;
    Disturbed d = DisturbQuery(g, adom, *gt, dopts);
    if (d.injected.empty() || !d.injected.IsCanonical()) continue;
    ++checked;

    PatternQuery via_sequence = *gt;
    ASSERT_TRUE(d.injected.ApplyAll(&via_sequence, dopts.max_bound));
    PatternQuery via_normal_form = *gt;
    OpSequence normal = d.injected.NormalForm();
    ASSERT_TRUE(normal.IsNormalForm());
    ASSERT_TRUE(normal.ApplyAll(&via_normal_form, dopts.max_bound))
        << normal.ToString(g.schema());
    EXPECT_EQ(via_sequence.Fingerprint(), via_normal_form.Fingerprint())
        << "seq: " << d.injected.ToString(g.schema());

    // Equal rewrites have equal answers.
    EXPECT_EQ(matcher.Answer(via_sequence), matcher.Answer(via_normal_form));
  }
  EXPECT_GT(checked, 3u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalFormPropertyTest, ::testing::Values(1, 2, 3));

// ---- AnsW answer obligations on randomized Why-questions, across all four
// dataset presets: every reported answer satisfies ℰ (or is the explicit
// original-query fallback), stays within budget, carries a canonical
// normal-form sequence, and its closeness never exceeds cl*.

class AnsWInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(AnsWInvariantTest, ReportedAnswersAreValid) {
  const auto specs = AllDatasets(0.02);
  const GraphSpec& spec = specs[static_cast<size_t>(GetParam()) % specs.size()];
  Graph g = GenerateGraph(spec);

  WhyFactoryOptions opts;
  opts.query.num_edges = 2;
  opts.disturb.num_ops = 2;
  opts.seed = 500 + static_cast<uint64_t>(GetParam());
  auto cases = MakeBenchCases(g, 3, opts);

  ChaseOptions chase;
  chase.budget = 3;
  chase.top_k = 3;
  chase.max_steps = 1500;

  for (const BenchCase& c : cases) {
    ChaseContext ctx(g, c.question, chase);
    ChaseResult r = ExecuteWithContext(ctx, Algorithm::kAnsW).result;
    ASSERT_TRUE(r.found());
    for (size_t i = 0; i < r.answers.size(); ++i) {
      const WhyAnswer& a = r.answers[i];
      EXPECT_LE(a.cost, chase.budget + 1e-9);
      EXPECT_TRUE(a.ops.IsNormalForm());
      EXPECT_TRUE(a.ops.IsCanonical());
      EXPECT_LE(a.closeness, r.cl_star + 1e-9);
      // The non-satisfying fallback only ever appears alone at rank 1.
      if (!a.satisfies_exemplar) {
        EXPECT_EQ(r.answers.size(), 1u);
        EXPECT_TRUE(a.ops.empty());
      }
      // Replaying the operators from the original query reproduces the
      // reported rewrite and its answer.
      PatternQuery replay = c.question.query;
      ASSERT_TRUE(a.ops.ApplyAll(&replay, chase.max_bound));
      EXPECT_EQ(replay.Fingerprint(), a.rewrite.Fingerprint());
      auto eval = ctx.Evaluate(replay, a.ops);
      EXPECT_EQ(eval->matches, a.matches);
      EXPECT_NEAR(eval->cl, a.closeness, 1e-9);
    }
    // Ranked by closeness.
    for (size_t i = 1; i < r.answers.size(); ++i) {
      EXPECT_GE(r.answers[i - 1].closeness + 1e-12, r.answers[i].closeness);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, AnsWInvariantTest,
                         ::testing::Values(0, 1, 2, 3));

// ---- Q(G) ⊨ ℰ: the chase decides it from the context's per-tuple Vsim
// sets over V_{u_o} plus the constraint fixpoint. The independent truth is
// the full ComputeRep over the matches (similarity, fixpoint, closeness).
// Rewrites come from random walks of generated operators, evaluated through
// both the full and the delta path, plus the AnsW answers (which satisfy ℰ
// unless they are the fallback).

class SatisfiesExemplarTest : public ::testing::TestWithParam<int> {};

// The generated questions carry no constraints (C = ∅), so each case is
// also run with a copy of its exemplar that has a random constant literal
// (its constant read off a graph node) and a random variable literal,
// which exercise the constraint fixpoint.
Exemplar WithRandomConstraints(const Graph& g, const Exemplar& e, Rng& rng) {
  Exemplar out;
  for (const TuplePattern& t : e.tuples()) out.AddTuple(t);
  const auto random_var = [&]() -> std::optional<VarRef> {
    const uint32_t t = static_cast<uint32_t>(rng.Index(e.tuples().size()));
    const auto& cells = e.tuples()[t].cells();
    if (cells.empty()) return std::nullopt;
    return VarRef{t, cells[rng.Index(cells.size())].attr};
  };
  const auto random_op = [&] { return static_cast<CmpOp>(rng.Int(0, 4)); };
  if (const auto lhs = random_var()) {
    for (int tries = 0; tries < 64; ++tries) {
      const NodeId v = static_cast<NodeId>(rng.Index(g.num_nodes()));
      if (const Value* val = g.attr(v, lhs->attr)) {
        out.AddConstraint(ConstraintLiteral::VarConst(*lhs, random_op(), *val));
        break;
      }
    }
  }
  const auto lhs = random_var();
  const auto rhs = random_var();
  if (lhs && rhs) {
    out.AddConstraint(ConstraintLiteral::VarVar(*lhs, random_op(), *rhs));
  }
  return out;
}

TEST_P(SatisfiesExemplarTest, VerdictEqualsComputeRepOverTheMatches) {
  const auto specs = AllDatasets(0.02);
  const GraphSpec& spec = specs[static_cast<size_t>(GetParam()) % specs.size()];
  Graph g = GenerateGraph(spec);

  WhyFactoryOptions opts;
  opts.query.num_edges = 2;
  opts.disturb.num_ops = 2;
  opts.seed = 900 + static_cast<uint64_t>(GetParam());
  auto cases = MakeBenchCases(g, 3, opts);

  ChaseOptions chase;
  chase.budget = 3;
  chase.max_steps = 300;
  Rng rng(static_cast<uint64_t>(GetParam()) * 131 + 7);

  std::vector<WhyQuestion> questions;
  for (const BenchCase& c : cases) {
    questions.push_back(c.question);
    questions.push_back(c.question);
    questions.back().exemplar =
        WithRandomConstraints(g, c.question.exemplar, rng);
  }

  size_t checked = 0;
  size_t satisfied = 0;
  for (const WhyQuestion& question : questions) {
    ChaseContext ctx(g, question, chase);
    const auto truth = [&](const std::vector<NodeId>& matches) {
      const bool sat =
          !matches.empty() &&
          ComputeRep(ctx.closeness(), question.exemplar, matches).nontrivial;
      satisfied += sat ? 1 : 0;
      return sat;
    };
    EXPECT_EQ(ctx.root()->satisfies_exemplar, truth(ctx.root()->matches));
    for (int walk = 0; walk < 4; ++walk) {
      ChaseNode node;
      node.eval = ctx.root();
      for (int step = 0; step < 3; ++step) {
        GenerateOps(ctx, node, node.eval->cl, 0, nullptr);
        if (node.queue.empty()) break;
        const Op op = node.queue[rng.Index(node.queue.size())].op;
        PatternQuery q = node.eval->query;
        if (!OpSequence({op}).ApplyAll(&q, chase.max_bound)) break;
        OpSequence ops = node.eval->ops;
        ops.Append(op);
        const auto eval = walk % 2 == 0
                              ? ctx.Evaluate(q, ops)
                              : ctx.Evaluate(q, QueryKey::Of(q), ops,
                                             node.eval.get(), {op});
        EXPECT_EQ(eval->satisfies_exemplar, truth(eval->matches))
            << spec.name << " walk " << walk << " step " << step << "\n"
            << question.exemplar.ToString(g.schema());
        ++checked;
        node = ChaseNode();
        node.eval = eval;
      }
    }
    const ChaseResult r = ExecuteWithContext(ctx, Algorithm::kAnsW).result;
    for (const WhyAnswer& a : r.answers) {
      EXPECT_EQ(a.satisfies_exemplar, truth(a.matches))
          << spec.name << "\n" << question.exemplar.ToString(g.schema());
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_GT(satisfied, 0u);
}

INSTANTIATE_TEST_SUITE_P(Datasets, SatisfiesExemplarTest,
                         ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace wqe
