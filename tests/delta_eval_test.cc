// Oracle suite for the incremental evaluation path (ChaseContext::Evaluate
// with a parent and applied ops), the engine's only evaluation path. End to end, every answer any solver bundle
// returns must carry exactly the brute-force matches of its rewrite
// (tests/reference_matcher.h), AnsW's best closeness must equal the
// exhaustive chase optimum, and output must be byte-identical across thread
// counts. The match-set reconstruction itself is checked directly against
// the reference oracle on random graphs, op by op, including the
// not-provably-local payloads that must fall back to full evaluation.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>

#include "chase/chase.h"
#include "chase/engine.h"
#include "chase/multi_focus.h"
#include "chase/next_op.h"
#include "chase/solve.h"
#include "chase/why_not.h"
#include "common/rng.h"
#include "gen/datasets.h"
#include "gen/product_demo.h"
#include "gen/synthetic.h"
#include "reference_matcher.h"
#include "workload/why_factory.h"

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

/// Everything a ChaseResult reports that must not depend on the thread
/// count: termination, the explored tree (steps, pruned), and every answer
/// byte.
std::string InvariantFingerprint(const ChaseResult& r) {
  std::ostringstream out;
  out << static_cast<int>(r.termination()) << '|' << r.stats.steps << '|'
      << r.stats.ops_generated << '|' << r.stats.pruned << '|' << r.cl_star
      << '\n';
  for (const WhyAnswer& a : r.answers) {
    out << a.fingerprint << '|' << a.cost << '|' << a.closeness << '|'
        << a.satisfies_exemplar << '|';
    for (NodeId v : a.matches) out << v << ',';
    out << '\n';
  }
  return out.str();
}

/// The brute-force answer of each rewrite, memoized by fingerprint: solver
/// bundles return the same rewrites many times over.
class ReferenceAnswers {
 public:
  explicit ReferenceAnswers(const Graph& g) : reference_(g) {}

  const std::vector<NodeId>& Of(const PatternQuery& q) {
    const std::string fp = q.Fingerprint();
    auto it = memo_.find(fp);
    if (it == memo_.end()) it = memo_.emplace(fp, reference_.Answer(q)).first;
    return it->second;
  }

 private:
  ReferenceMatcher reference_;
  std::map<std::string, std::vector<NodeId>> memo_;
};

/// AnsW's best closeness against the exhaustive chase optimum (Theorem 4.3)
/// over the same operator universe: pruning off in the reference context,
/// depth bounded by the number of operators the budget admits (c(o) >= 1).
/// Returns whether the comparison ran: only a completed search is optimal, a
/// step-capped or timed-out one is a lower bound.
bool ExpectAnsWMatchesExhaustive(const Graph& g, const WhyQuestion& w,
                                 const ChaseOptions& opts,
                                 const ChaseResult& answ) {
  const TerminationReason t = answ.termination();
  if (!answ.ok() || t == TerminationReason::kStepCap ||
      t == TerminationReason::kDeadline) {
    return false;
  }
  ChaseOptions ref_opts = opts;
  ref_opts.use_pruning = false;
  ChaseContext ctx(g, w, ref_opts);
  const ExhaustiveResult exhaustive =
      ExhaustiveChase(ctx, static_cast<size_t>(opts.budget));
  // Without a satisfying rewrite AnsW reports the root as a fallback.
  const bool answered = answ.found() && answ.best().satisfies_exemplar;
  EXPECT_EQ(answered, exhaustive.found);
  if (answered && exhaustive.found) {
    EXPECT_NEAR(answ.best().closeness, exhaustive.best_closeness, 1e-9);
  }
  return true;
}

// ---------------------------------------------------------------------------
// End-to-end against independent truth: all five solvers, 1 and 4 threads.
// ---------------------------------------------------------------------------

/// Runs all five solvers at 1 and 4 threads on each question; every answer
/// must carry the reference matches of its rewrite. Returns how many AnsW
/// runs were also compared with the exhaustive optimum.
size_t CheckEveryAlgorithmAgainstOracles(
    const Graph& g, const std::vector<WhyQuestion>& questions) {
  ReferenceAnswers reference(g);
  size_t exhaustive_checks = 0;
  for (const Algorithm algo :
       {Algorithm::kAnsW, Algorithm::kAnsWE, Algorithm::kAnsHeu,
        Algorithm::kFMAnsW, Algorithm::kApxWhyM}) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      for (const WhyQuestion& w : questions) {
        const ChaseOptions opts = BaseOptions(threads);
        ChaseResult r = Execute(g, {w, opts, algo}).result;
        EXPECT_TRUE(r.ok()) << AlgorithmName(algo);
        EXPECT_FALSE(r.answers.empty()) << AlgorithmName(algo);
        for (const WhyAnswer& a : r.answers) {
          EXPECT_EQ(a.matches, reference.Of(a.rewrite))
              << AlgorithmName(algo) << " threads=" << threads << " "
              << a.fingerprint;
        }
        if (algo == Algorithm::kAnsW && threads == 1 &&
            ExpectAnsWMatchesExhaustive(g, w, opts, r)) {
          ++exhaustive_checks;
        }
      }
    }
  }
  return exhaustive_checks;
}

TEST(DeltaEvalTest, AnswersOfEveryAlgorithmMatchReferenceMatcher) {
  // Generated questions: their best rewrites refine.
  Graph g = GenerateGraph(ImdbLike(0.04));
  WhyFactoryOptions fopts;
  fopts.query.num_edges = 2;
  fopts.disturb.num_ops = 2;
  fopts.seed = 11;
  std::vector<WhyQuestion> questions;
  for (const BenchCase& c : MakeBenchCases(g, 2, fopts)) {
    questions.push_back(c.question);
  }
  ASSERT_FALSE(questions.empty());
  EXPECT_GT(CheckEveryAlgorithmAgainstOracles(g, questions), 0u);

  // The product demo: its optimum relaxes and refines (RmE, a price RxL,
  // AddL).
  ProductDemo demo;
  EXPECT_EQ(CheckEveryAlgorithmAgainstOracles(demo.graph(), {demo.Question()}),
            1u);
}

TEST(DeltaEvalTest, ByteIdenticalAcrossThreadCounts) {
  Graph g = GenerateGraph(DbpediaLike(0.04));
  WhyFactoryOptions fopts;
  fopts.query.num_edges = 2;
  fopts.disturb.num_ops = 2;
  fopts.seed = 5;
  auto cases = MakeBenchCases(g, 2, fopts);
  ASSERT_FALSE(cases.empty());

  for (const Algorithm algo : {Algorithm::kAnsW, Algorithm::kAnsHeu}) {
    for (const BenchCase& c : cases) {
      ChaseResult serial =
          Execute(g, {c.question, BaseOptions(1), algo}).result;
      ChaseResult parallel =
          Execute(g, {c.question, BaseOptions(4), algo}).result;
      ASSERT_TRUE(serial.ok() && parallel.ok());
      EXPECT_EQ(InvariantFingerprint(serial), InvariantFingerprint(parallel))
          << AlgorithmName(algo);
      EXPECT_EQ(serial.stats.evaluations, parallel.stats.evaluations)
          << AlgorithmName(algo);
    }
  }
}

TEST(DeltaEvalTest, MultiFocusAnswersMatchReferenceMatcherPerFocus) {
  ProductDemo demo;
  MultiFocusQuestion w;
  w.query = demo.Query();
  w.foci = {0, 2};
  w.exemplars.push_back(demo.MakeExemplar());
  std::vector<NodeId> sprint = {demo.sprint()};
  w.exemplars.push_back(Exemplar::FromEntities(demo.graph(), sprint));

  ChaseOptions o;
  o.budget = 4;
  const MultiFocusResult r = AnsWMultiFocus(demo.graph(), w, o);
  ASSERT_TRUE(r.found());
  ReferenceAnswers reference(demo.graph());
  for (const MultiFocusAnswer& a : r.answers) {
    ASSERT_EQ(a.matches_per_focus.size(), w.foci.size());
    for (size_t i = 0; i < w.foci.size(); ++i) {
      PatternQuery q = a.rewrite;
      q.SetFocus(w.foci[i]);
      EXPECT_EQ(a.matches_per_focus[i], reference.Of(q))
          << a.fingerprint << " focus=u" << w.foci[i];
    }
  }

  // The same fixture's first focus as a single-focus question.
  const ChaseResult answ =
      Execute(demo.graph(), {demo.Question(), o, Algorithm::kAnsW}).result;
  EXPECT_TRUE(
      ExpectAnsWMatchesExhaustive(demo.graph(), demo.Question(), o, answ));
}

TEST(DeltaEvalTest, WhyNotReportsMatchReferenceMatcher) {
  ProductDemo demo;
  ChaseOptions o;
  o.budget = 4;
  ChaseContext ctx(demo.graph(), demo.Question(), o);
  ReferenceMatcher reference(demo.graph());
  const PatternQuery& q = ctx.root()->query;
  const std::vector<NodeId> truth = reference.Answer(q);
  size_t explained = 0;
  for (int i = 1; i <= 5; ++i) {
    const NodeId p = demo.p(i);
    const WhyNotReport report = ExplainWhyNot(ctx, p);
    EXPECT_EQ(report.is_match,
              std::binary_search(truth.begin(), truth.end(), p))
        << "P" << i;
    if (report.is_match) continue;
    ++explained;
    // The repair is verified exactly when it applies and admits the entity.
    PatternQuery repaired = q;
    bool applied = true;
    for (const Op& op : report.repair.ops()) {
      applied = applied && Apply(op, &repaired, o.max_bound);
    }
    bool admitted = false;
    if (applied) {
      const std::vector<NodeId> after = reference.Answer(repaired);
      admitted = std::binary_search(after.begin(), after.end(), p);
    }
    EXPECT_EQ(report.repair_verified, admitted) << "P" << i;
  }
  EXPECT_GT(explained, 0u);
}

// ---------------------------------------------------------------------------
// Direct oracle checks: delta evaluation vs brute-force reference, per op.
// ---------------------------------------------------------------------------

Graph RandomAttributedGraph(Rng& rng, size_t n, size_t m, int num_labels) {
  Graph g;
  for (size_t i = 0; i < n; ++i) {
    NodeId v = g.AddNode(
        "L" + std::to_string(rng.Index(static_cast<size_t>(num_labels))));
    g.SetNum(v, "x", static_cast<double>(rng.Int(0, 9)));
    if (rng.Chance(0.6)) {
      g.SetNum(v, "y", static_cast<double>(rng.Int(0, 4)));
    }
  }
  for (size_t e = 0; e < m; ++e) {
    NodeId a = static_cast<NodeId>(rng.Index(n));
    NodeId b = static_cast<NodeId>(rng.Index(n));
    if (a != b) g.AddEdge(a, b);
  }
  g.Finalize();
  return g;
}

PatternQuery RandomQuery(Rng& rng, Graph& g, size_t max_nodes) {
  PatternQuery q;
  const size_t num_nodes = 2 + rng.Index(max_nodes - 1);
  for (size_t i = 0; i < num_nodes; ++i) {
    LabelId label = g.schema().LookupLabel("L" + std::to_string(rng.Index(3)));
    q.AddNode(label);
    if (rng.Chance(0.5)) {
      q.AddLiteral(static_cast<QNodeId>(i),
                   {g.schema().LookupAttr("x"), CmpOp::kGe,
                    Value::Num(static_cast<double>(rng.Int(0, 5)))});
    }
  }
  for (size_t i = 1; i < num_nodes; ++i) {
    const QNodeId parent = static_cast<QNodeId>(rng.Index(i));
    q.AddEdge(parent, static_cast<QNodeId>(i),
              static_cast<uint32_t>(rng.Int(1, 3)));
  }
  q.SetFocus(0);
  return q;
}

/// A context whose exemplar is drawn from the focus's candidate class so the
/// rep is usually nontrivial and operator generation has something to chew.
std::unique_ptr<ChaseContext> MakeContext(Graph& g, const PatternQuery& q,
                                          bool use_memo = true,
                                          size_t num_threads = 1) {
  std::vector<NodeId> entities = ComputeCandidates(g, q, q.focus());
  if (entities.empty()) {
    entities = {0, 1};
  } else if (entities.size() > 3) {
    entities.resize(3);
  }
  WhyQuestion w;
  w.query = q;
  w.exemplar = Exemplar::FromEntities(g, entities);
  ChaseOptions o;
  o.budget = 3;
  o.use_memo = use_memo;
  o.num_threads = num_threads;
  return std::make_unique<ChaseContext>(g, w, o);
}

uint64_t Counter(ChaseContext& ctx, const char* name) {
  return ctx.obs().metrics.counter(name).Value();
}

/// Relaxations on the focus side of `q`: removing and loosening each focus
/// literal, and widening each focus-incident edge bound. They grow the focus
/// candidate set, so a relax child's new matches can lie outside every set
/// the parent's evaluation read.
std::vector<Op> FocusRelaxations(const PatternQuery& q, uint32_t max_bound) {
  std::vector<Op> out;
  const QNodeId f = q.focus();
  for (const Literal& lit : q.node(f).literals) {
    Op rm;
    rm.kind = OpKind::kRmL;
    rm.u = f;
    rm.lit = lit;
    out.push_back(rm);
    Op rx = rm;
    rx.kind = OpKind::kRxL;
    rx.new_lit = lit;
    rx.new_lit.constant = Value::Num(lit.constant.num() - 2);  // x >= c - 2
    out.push_back(rx);
  }
  for (const QueryEdge& e : q.edges()) {
    if ((e.from == f || e.to == f) && e.bound < max_bound) {
      Op rx;
      rx.kind = OpKind::kRxE;
      rx.u = e.from;
      rx.v = e.to;
      rx.bound = e.bound;
      rx.new_bound = e.bound + 1;
      out.push_back(rx);
    }
  }
  return out;
}

TEST(DeltaEvalTest, SingleOpDeltasMatchBruteForceOracle) {
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    uint64_t delta_hits_total = 0;
    size_t focus_relax_gains = 0;
    for (const uint64_t seed : {3u, 17u, 91u, 404u}) {
      Rng rng(seed);
      Graph g = RandomAttributedGraph(rng, 14, 30, 3);
      ReferenceMatcher reference(g);
      PatternQuery q = RandomQuery(rng, g, 4);
      if (q.node(q.focus()).literals.empty()) {
        q.AddLiteral(q.focus(), {g.schema().LookupAttr("x"), CmpOp::kGe,
                                 Value::Num(4)});
      }
      auto ctx = MakeContext(g, q, /*use_memo=*/true, threads);
      const uint32_t max_bound = ctx->options().max_bound;

      // The root's single-op child under `op`, evaluated as a delta and
      // checked against the oracle and the full path; null if inapplicable.
      auto check = [&](const Op& op) -> std::shared_ptr<EvalResult> {
        PatternQuery child = q;
        if (!Apply(op, &child, max_bound)) return nullptr;
        const std::string where = "threads=" + std::to_string(threads) +
                                  " seed=" + std::to_string(seed) +
                                  " op=" + op.ToString(g.schema());
        OpSequence ops;
        ops.Append(op);
        auto eval = ctx->Evaluate(child, QueryKey::Of(child), ops,
                                  ctx->root().get(), {op});
        EXPECT_EQ(eval->matches, reference.Answer(child)) << where;
        // The delta result must also agree byte-for-byte with the full path.
        ChaseContext full_ctx(g, {q, ctx->question().exemplar},
                              ctx->options());
        auto full = full_ctx.Evaluate(child, ops);
        EXPECT_EQ(eval->matches, full->matches) << where;
        EXPECT_EQ(eval->cl, full->cl) << where;
        EXPECT_EQ(eval->cl_plus, full->cl_plus) << where;
        EXPECT_EQ(eval->satisfies_exemplar, full->satisfies_exemplar) << where;
        return eval;
      };

      ChaseNode root_node;
      root_node.eval = ctx->root();
      GenerateOps(*ctx, root_node, /*best_cl=*/-1e18, /*per_class_cap=*/0,
                  nullptr);
      size_t tried = 0;
      for (const ScoredOp& scored : root_node.queue) {
        if (tried >= 12) break;
        if (check(scored.op) != nullptr) ++tried;
      }
      for (const Op& op : FocusRelaxations(q, max_bound)) {
        const auto eval = check(op);
        if (eval != nullptr &&
            eval->matches.size() > ctx->root()->matches.size()) {
          ++focus_relax_gains;
        }
      }
      delta_hits_total += Counter(*ctx, "delta_eval.hits");
    }
    // Every op above is a pure-polarity single-op payload, so all of the
    // checks must have exercised the incremental paths.
    EXPECT_GT(delta_hits_total, 0u) << "threads=" << threads;
    // Some focus-side relaxation admitted matches the parent lacked: new
    // matches a relax child can only find among its own focus candidates.
    EXPECT_GT(focus_relax_gains, 0u) << "threads=" << threads;
  }
}

TEST(DeltaEvalTest, MultiOpRelaxPayloadMatchesOracle) {
  for (const uint64_t seed : {23u, 58u}) {
    Rng rng(seed);
    Graph g = RandomAttributedGraph(rng, 14, 32, 3);
    ReferenceMatcher reference(g);
    PatternQuery q = RandomQuery(rng, g, 4);
    auto ctx = MakeContext(g, q, /*use_memo=*/false);

    ChaseNode root_node;
    root_node.eval = ctx->root();
    GenerateOps(*ctx, root_node, -1e18, 0, nullptr);
    std::vector<Op> relaxes;
    for (const ScoredOp& scored : root_node.queue) {
      if (scored.op.is_relax()) relaxes.push_back(scored.op);
      if (relaxes.size() == 2) break;
    }
    if (relaxes.size() < 2) continue;  // seed produced no joint payload
    PatternQuery child = q;
    if (!Apply(relaxes[0], &child, ctx->options().max_bound)) continue;
    if (!Apply(relaxes[1], &child, ctx->options().max_bound)) continue;
    OpSequence ops;
    ops.Append(relaxes[0]);
    ops.Append(relaxes[1]);
    const uint64_t hits_before = Counter(*ctx, "delta_eval.hits");
    auto eval = ctx->Evaluate(child, QueryKey::Of(child), ops,
                              ctx->root().get(), relaxes);
    EXPECT_EQ(eval->matches, reference.Answer(child)) << "seed=" << seed;
    // A same-polarity payload is provably local: no fallback.
    EXPECT_EQ(Counter(*ctx, "delta_eval.hits"), hits_before + 1);
  }
}

TEST(DeltaEvalTest, NotProvablyLocalPayloadsFallBackToFullEvaluation) {
  Rng rng(7);
  Graph g = RandomAttributedGraph(rng, 14, 30, 3);
  ReferenceMatcher reference(g);
  PatternQuery q = RandomQuery(rng, g, 4);
  auto ctx = MakeContext(g, q, /*use_memo=*/false);
  const AttrId x = g.schema().LookupAttr("x");

  // A refinement on the focus node itself shifts the focus candidate space
  // but not the polarity argument: it stays on the (refine) delta path and
  // must remain exact.
  Op focus_op;
  focus_op.kind = OpKind::kAddL;
  focus_op.u = q.focus();
  focus_op.lit = {x, CmpOp::kLe, Value::Num(8)};
  PatternQuery focus_child = q;
  ASSERT_TRUE(Apply(focus_op, &focus_child, ctx->options().max_bound));
  uint64_t fb = Counter(*ctx, "delta_eval.full_fallbacks");
  const uint64_t hits = Counter(*ctx, "delta_eval.hits");
  OpSequence focus_ops;
  focus_ops.Append(focus_op);
  auto focus_eval =
      ctx->Evaluate(focus_child, QueryKey::Of(focus_child), focus_ops,
                    ctx->root().get(), {focus_op});
  EXPECT_EQ(Counter(*ctx, "delta_eval.full_fallbacks"), fb);
  EXPECT_EQ(Counter(*ctx, "delta_eval.hits"), hits + 1);
  EXPECT_EQ(focus_eval->matches, reference.Answer(focus_child));

  // A mixed relax+refine payload on a non-focus node: neither inclusion
  // holds — must fall back.
  const QNodeId other = static_cast<QNodeId>(q.focus() == 0 ? 1 : 0);
  Op add;
  add.kind = OpKind::kAddL;
  add.u = other;
  add.lit = {x, CmpOp::kLe, Value::Num(9)};
  Op rm;
  rm.kind = OpKind::kRmL;
  rm.u = other;
  rm.lit = add.lit;
  PatternQuery mixed_child = q;
  ASSERT_TRUE(Apply(add, &mixed_child, ctx->options().max_bound));
  ASSERT_TRUE(Apply(rm, &mixed_child, ctx->options().max_bound));
  fb = Counter(*ctx, "delta_eval.full_fallbacks");
  OpSequence mixed_ops;
  mixed_ops.Append(add);
  mixed_ops.Append(rm);
  auto mixed_eval = ctx->Evaluate(mixed_child, QueryKey::Of(mixed_child),
                                  mixed_ops, ctx->root().get(), {add, rm});
  EXPECT_EQ(Counter(*ctx, "delta_eval.full_fallbacks"), fb + 1);
  EXPECT_EQ(mixed_eval->matches, reference.Answer(mixed_child));

  // No parent context at all: the delta has nothing to diff against.
  fb = Counter(*ctx, "delta_eval.full_fallbacks");
  OpSequence add_ops;
  add_ops.Append(add);
  PatternQuery add_child = q;
  ASSERT_TRUE(Apply(add, &add_child, ctx->options().max_bound));
  auto orphan = ctx->Evaluate(add_child, QueryKey::Of(add_child), add_ops,
                              nullptr, {add});
  EXPECT_EQ(Counter(*ctx, "delta_eval.full_fallbacks"), fb + 1);
  EXPECT_EQ(orphan->matches, reference.Answer(add_child));

  // An empty payload cannot be classified: fallback.
  fb = Counter(*ctx, "delta_eval.full_fallbacks");
  auto empty = ctx->Evaluate(q, QueryKey::Of(q), OpSequence(),
                             ctx->root().get(), {});
  EXPECT_EQ(Counter(*ctx, "delta_eval.full_fallbacks"), fb + 1);
  EXPECT_EQ(empty->matches, ctx->root()->matches);
}

/// The context's own delta tallies and the registry's delta_eval.* /
/// chase.* counters must agree; returns the fallback count.
uint64_t CheckedFallbacks(ChaseContext& ctx) {
  const ChaseStats& s = ctx.stats();
  EXPECT_EQ(s.evaluations, Counter(ctx, "chase.evaluations"));
  EXPECT_EQ(s.memo_hits, Counter(ctx, "chase.memo_hits"));
  EXPECT_EQ(s.delta_hits, Counter(ctx, "delta_eval.hits"));
  EXPECT_EQ(s.delta_full_fallbacks, Counter(ctx, "delta_eval.full_fallbacks"));
  return s.delta_full_fallbacks;
}

TEST(DeltaEvalTest, FrontDoorCountsEachEvaluationOnce) {
  Rng rng(3);
  Graph g = RandomAttributedGraph(rng, 14, 30, 3);
  PatternQuery q = RandomQuery(rng, g, 4);

  // A single-op child of the root: a provably local delta.
  auto probe = MakeContext(g, q);
  ChaseNode root_node;
  root_node.eval = probe->root();
  GenerateOps(*probe, root_node, -1e18, 0, nullptr);
  PatternQuery child;
  Op op;
  bool found = false;
  for (const ScoredOp& scored : root_node.queue) {
    child = q;
    op = scored.op;
    if (!op.is_noop() && Apply(op, &child, probe->options().max_bound)) {
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  OpSequence ops;
  ops.Append(op);
  const QueryKey key = QueryKey::Of(child);

  // The constructor's root evaluation and direct calls are not delta
  // offers: no fallback. A full evaluation is one evaluation; its repeat,
  // through either door, is a memo hit.
  auto full = MakeContext(g, q);
  EXPECT_EQ(full->stats().evaluations, 1u);  // the root
  EXPECT_EQ(CheckedFallbacks(*full), 0u);
  full->Evaluate(child, key, ops);
  EXPECT_EQ(full->stats().evaluations, 2u);
  full->Evaluate(child, key, ops);
  full->Evaluate(child, key, ops, full->root().get(), {op});
  EXPECT_EQ(full->stats().evaluations, 2u);
  EXPECT_EQ(full->stats().memo_hits, 2u);
  EXPECT_EQ(full->stats().delta_hits, 0u);
  EXPECT_EQ(CheckedFallbacks(*full), 0u);

  // A delta evaluation is one evaluation and one delta hit; its repeat,
  // through either door, is a memo hit.
  auto delta = MakeContext(g, q);
  delta->Evaluate(child, key, ops, delta->root().get(), {op});
  EXPECT_EQ(delta->stats().evaluations, 2u);
  EXPECT_EQ(delta->stats().delta_hits, 1u);
  delta->Evaluate(child, key, ops, delta->root().get(), {op});
  delta->Evaluate(child, key, ops);
  EXPECT_EQ(delta->stats().evaluations, 2u);
  EXPECT_EQ(delta->stats().memo_hits, 2u);
  EXPECT_EQ(delta->stats().delta_hits, 1u);
  EXPECT_EQ(CheckedFallbacks(*delta), 0u);

  // An engine evaluation without a parent was offered as a delta: one
  // fallback, evaluated in full.
  auto orphan = MakeContext(g, q);
  engine::Proposal prop;
  prop.ops = {op};
  prop.key = key;
  const engine::Judged j =
      engine::ContextEval(*orphan)(PatternQuery(child), ops, prop);
  EXPECT_EQ(j.eval->matches, full->Evaluate(child, key, ops)->matches);
  EXPECT_EQ(orphan->stats().evaluations, 2u);
  EXPECT_EQ(orphan->stats().delta_hits, 0u);
  EXPECT_EQ(CheckedFallbacks(*orphan), 1u);
}

TEST(DeltaEvalTest, EngineBoundCutSkipsRefineOnlyChildrenPreEvaluation) {
  // No graph needed: the engine's bound cut is pure control flow over the
  // proposal's polarity and the parent's cl⁺.
  PatternQuery q;
  q.SetFocus(q.AddNode(1));
  q.AddLiteral(0, {0, CmpOp::kGe, Value::Num(1)});

  EvalResult parent;
  parent.query = q;
  parent.cl_plus = 0.1;  // under the stub threshold: refine children are dead

  Op refine;
  refine.kind = OpKind::kAddL;
  refine.u = 0;
  refine.lit = {0, CmpOp::kLe, Value::Num(5)};
  Op relax;
  relax.kind = OpKind::kRmL;
  relax.u = 0;
  relax.lit = {0, CmpOp::kGe, Value::Num(1)};

  struct CutAccept : engine::AcceptPolicy {
    bool PruneByBound(double bound, const engine::Proposal&,
                      engine::ChaseState&) override {
      return bound <= 0.5;
    }
    bool Offer(const engine::Judged&, const engine::Proposal&,
               engine::ChaseState&) override {
      return false;
    }
  } accept;

  size_t evaluated = 0;
  ChaseOptions opts;
  engine::EngineConfig cfg;
  cfg.opts = &opts;
  cfg.accept = &accept;
  cfg.evaluate = [&](PatternQuery&& query, OpSequence ops,
                     const engine::Proposal&) {
    ++evaluated;
    engine::Judged j;
    j.eval = std::make_shared<EvalResult>();
    j.eval->query = std::move(query);
    j.eval->ops = std::move(ops);
    return j;
  };

  engine::ListFrontier frontier(
      &q, {{{refine}, 1.0, -1}, {{relax}, 1.0, -1}}, &parent);
  cfg.frontier = &frontier;
  uint64_t steps = 0;
  uint64_t pruned = 0;
  engine::ChaseState state(&steps, &pruned);
  engine::Run(cfg, state);

  // The refine-only proposal was cut before its evaluation ran; the relax
  // proposal (parent bound does not dominate) was evaluated.
  EXPECT_EQ(state.bound_cuts, 1u);
  EXPECT_EQ(pruned, 1u);
  EXPECT_EQ(evaluated, 1u);

  // Without a parent evaluation there is no bound to cut on: the same
  // refine-only proposal is evaluated.
  engine::ListFrontier replay(&q, {{{refine}, 1.0, -1}});
  cfg.frontier = &replay;
  engine::ChaseState state2(&steps, &pruned);
  engine::Run(cfg, state2);
  EXPECT_EQ(state2.bound_cuts, 0u);
  EXPECT_EQ(evaluated, 2u);
}

TEST(DeltaEvalTest, DeltaChildrenVerifyWithoutStarViews) {
  Rng rng(19);
  Graph g = RandomAttributedGraph(rng, 14, 30, 3);
  ReferenceMatcher reference(g);
  const AttrId x = g.schema().LookupAttr("x");
  // A 4-node path with a focus literal: the refine child tightens the far
  // end, the relax child drops the focus literal.
  PatternQuery q;
  const LabelId l0 = g.schema().LookupLabel("L0");
  for (int i = 0; i < 4; ++i) q.AddNode(l0);
  q.AddEdge(0, 1, 1);
  q.AddEdge(1, 2, 1);
  q.AddEdge(2, 3, 1);
  q.AddLiteral(0, {x, CmpOp::kGe, Value::Num(3)});
  q.SetFocus(0);
  WhyQuestion w;
  w.query = q;
  const std::vector<NodeId> entities = {0, 1};
  w.exemplar = Exemplar::FromEntities(g, entities);
  ChaseOptions o;
  o.budget = 3;
  o.use_memo = false;

  // A shared cache warmed by an earlier question's root evaluation.
  GraphIndexes indexes(g);
  ViewCache shared;
  { ChaseContext warm(g, &indexes, &shared, w, o); }
  ASSERT_GT(shared.size(), 0u);
  ChaseContext ctx(g, &indexes, &shared, w, o);
  ASSERT_GT(ctx.stats().cache_hits, 0u);

  Op refine;
  refine.kind = OpKind::kAddL;
  refine.u = 3;
  refine.lit = {x, CmpOp::kLe, Value::Num(9)};
  Op relax;
  relax.kind = OpKind::kRmL;
  relax.u = 0;
  relax.lit = q.node(0).literals[0];
  for (const Op& op : {refine, relax}) {
    PatternQuery child = q;
    ASSERT_TRUE(Apply(op, &child, o.max_bound));
    OpSequence ops;
    ops.Append(op);
    const ChaseStats before = ctx.stats();
    const uint64_t built = ctx.star_matcher().stats().tables_built;
    const uint64_t shared_hits = shared.hits();
    const uint64_t shared_misses = shared.misses();
    const size_t shared_size = shared.size();
    auto eval = ctx.Evaluate(child, QueryKey::Of(child), ops,
                             ctx.root().get(), {op});
    const std::string where = op.ToString(g.schema());
    EXPECT_EQ(ctx.stats().delta_hits, before.delta_hits + 1) << where;
    EXPECT_EQ(eval->matches, reference.Answer(child)) << where;
    // Neither child builds, fetches or probes a star view.
    EXPECT_EQ(ctx.star_matcher().stats().tables_built, built) << where;
    EXPECT_EQ(ctx.stats().tables_built, before.tables_built) << where;
    EXPECT_EQ(ctx.stats().cache_hits, before.cache_hits) << where;
    EXPECT_EQ(ctx.stats().cache_misses, before.cache_misses) << where;
    EXPECT_EQ(shared.hits(), shared_hits) << where;
    EXPECT_EQ(shared.misses(), shared_misses) << where;
    EXPECT_EQ(shared.size(), shared_size) << where;

    // The same child evaluated in full still reads the views.
    const auto full = ctx.Evaluate(child, ops);
    EXPECT_EQ(full->matches, eval->matches) << where;
    EXPECT_GT(ctx.stats().cache_hits + ctx.stats().cache_misses,
              before.cache_hits + before.cache_misses)
        << where;
  }
}

}  // namespace
}  // namespace wqe
