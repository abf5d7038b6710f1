// Property suite: the production Matcher and the star-view StarMatcher agree
// with a brute-force enumeration oracle on random small graphs and random
// queries — including wildcard labels, multi-bound edges, cycles, and
// literal predicates.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "common/rng.h"
#include "gen/datasets.h"
#include "gen/synthetic.h"
#include "match/star_matcher.h"
#include "reference_matcher.h"
#include "workload/query_gen.h"

namespace wqe {
namespace {

Graph RandomAttributedGraph(Rng& rng, size_t n, size_t m, int num_labels) {
  Graph g;
  for (size_t i = 0; i < n; ++i) {
    NodeId v = g.AddNode("L" + std::to_string(rng.Index(static_cast<size_t>(num_labels))));
    g.SetNum(v, "x", static_cast<double>(rng.Int(0, 9)));
    if (rng.Chance(0.6)) {
      g.SetNum(v, "y", static_cast<double>(rng.Int(0, 4)));
    }
    if (rng.Chance(0.4)) {
      g.SetStr(v, "c", rng.Chance(0.5) ? "red" : "blue");
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
  const size_t num_nodes = 1 + rng.Index(max_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    // Wildcard labels with probability 1/4.
    LabelId label = kWildcardSymbol;
    if (!rng.Chance(0.25)) {
      label = g.schema().LookupLabel("L" + std::to_string(rng.Index(3)));
    }
    q.AddNode(label);
    // Random literal on x.
    if (rng.Chance(0.5)) {
      const CmpOp op = static_cast<CmpOp>(rng.Int(0, 4));
      q.AddLiteral(static_cast<QNodeId>(i),
                   {g.schema().LookupAttr("x"), op,
                    Value::Num(static_cast<double>(rng.Int(0, 9)))});
    }
  }
  // Random connected-ish edges: spanning tree + extras.
  for (size_t i = 1; i < num_nodes; ++i) {
    const QNodeId parent = static_cast<QNodeId>(rng.Index(i));
    const uint32_t bound = static_cast<uint32_t>(rng.Int(1, 3));
    if (rng.Chance(0.5)) {
      q.AddEdge(parent, static_cast<QNodeId>(i), bound);
    } else {
      q.AddEdge(static_cast<QNodeId>(i), parent, bound);
    }
  }
  for (int extra = 0; extra < 1; ++extra) {
    if (num_nodes < 3 || !rng.Chance(0.4)) break;
    const QNodeId a = static_cast<QNodeId>(rng.Index(num_nodes));
    const QNodeId b = static_cast<QNodeId>(rng.Index(num_nodes));
    if (a != b && !q.HasEdgeEitherDirection(a, b)) {
      q.AddEdge(a, b, static_cast<uint32_t>(rng.Int(1, 2)));
    }
  }
  q.SetFocus(static_cast<QNodeId>(rng.Index(num_nodes)));
  return q;
}

class MatcherPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MatcherPropertyTest, MatcherAgreesWithBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 5);
  for (int trial = 0; trial < 15; ++trial) {
    Graph g = RandomAttributedGraph(rng, 14, 30, 3);
    ReferenceMatcher reference(g);
    DistanceIndex dist(g);
    Matcher matcher(g, &dist);
    for (int probe = 0; probe < 6; ++probe) {
      PatternQuery q = RandomQuery(rng, g, 4);
      EXPECT_EQ(matcher.Answer(q), reference.Answer(q))
          << "trial " << trial << " probe " << probe << "\n"
          << q.ToString(g.schema());
    }
  }
}

TEST_P(MatcherPropertyTest, StarMatcherAgreesWithBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 3);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = RandomAttributedGraph(rng, 14, 30, 3);
    ReferenceMatcher reference(g);
    DistanceIndex dist(g);
    ViewCache cache;
    StarMatcher sm(g, &dist, &cache);
    for (int probe = 0; probe < 6; ++probe) {
      PatternQuery q = RandomQuery(rng, g, 4);
      EXPECT_EQ(sm.Evaluate(q).matches, reference.Answer(q))
          << "trial " << trial << " probe " << probe << "\n"
          << q.ToString(g.schema());
    }
  }
}

TEST_P(MatcherPropertyTest, CachedStarMatcherStaysCorrectAcrossRewrites) {
  // Evaluate a query, mutate it (rewrites share star signatures across
  // different node orders), and check the cached evaluation stays exact.
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 1);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = RandomAttributedGraph(rng, 14, 30, 3);
    ReferenceMatcher reference(g);
    DistanceIndex dist(g);
    ViewCache cache;
    StarMatcher sm(g, &dist, &cache);
    PatternQuery q = RandomQuery(rng, g, 4);
    for (int step = 0; step < 5; ++step) {
      EXPECT_EQ(sm.Evaluate(q).matches, reference.Answer(q))
          << q.ToString(g.schema());
      // Random small mutation.
      if (!q.node(q.focus()).literals.empty() && rng.Chance(0.5)) {
        q.RemoveLiteralAt(q.focus(), 0);
      } else if (q.num_edges() > 0 && rng.Chance(0.3)) {
        q.edge(rng.Index(q.num_edges())).bound =
            static_cast<uint32_t>(rng.Int(1, 3));
      } else {
        q.AddLiteral(static_cast<QNodeId>(rng.Index(q.num_nodes())),
                     {g.schema().LookupAttr("x"), CmpOp::kGe,
                      Value::Num(static_cast<double>(rng.Int(0, 5)))});
      }
    }
  }
}

// A chase's rewrites differ from their parent by one operator, so they share
// most node filters. Grows such a family: appends a one-operator variant (a
// literal added or dropped, a bound changed) of a random member.
void GrowRewriteFamily(Rng& rng, Graph& g, std::vector<PatternQuery>& family) {
  PatternQuery q = family[rng.Index(family.size())];
  const QNodeId u = static_cast<QNodeId>(rng.Index(q.num_nodes()));
  if (!q.node(u).literals.empty() && rng.Chance(0.4)) {
    q.RemoveLiteralAt(u, 0);
  } else if (q.num_edges() > 0 && rng.Chance(0.4)) {
    q.edge(rng.Index(q.num_edges())).bound =
        static_cast<uint32_t>(rng.Int(1, 3));
  } else {
    q.AddLiteral(u, {g.schema().LookupAttr("x"),
                     static_cast<CmpOp>(rng.Int(0, 4)),
                     Value::Num(static_cast<double>(rng.Int(0, 9)))});
  }
  family.push_back(std::move(q));
}

TEST_P(MatcherPropertyTest, LongLivedMatchersAgreeWithBruteForceAcrossRewrites) {
  // One Matcher and one StarMatcher answer a whole seeded sequence of
  // rewrites, revisiting earlier ones, so their ball memos hit across
  // rewrites. The sequence runs until both memos have reached their cell
  // budget (small on graphs this size) and been reset at least once; with
  // forward checking that can take several thousand probes.
  Rng rng(static_cast<uint64_t>(GetParam()) * 6007 + 11);
  for (int trial = 0; trial < 4; ++trial) {
    Graph g = RandomAttributedGraph(rng, 18, 45, 3);
    ReferenceMatcher reference(g);
    DistanceIndex dist(g);
    Matcher matcher(g, &dist);
    ViewCache cache;
    StarMatcher sm(g, &dist, &cache);
    // At least three nodes, so every rewrite has steps that expand balls.
    PatternQuery base = RandomQuery(rng, g, 4);
    while (base.num_nodes() < 3) base = RandomQuery(rng, g, 4);
    std::vector<PatternQuery> family = {base};
    int probe = 0;
    for (; probe < 20000; ++probe) {
      if (probe >= 40 && matcher.stats().ball_evictions > 0 &&
          sm.matcher().stats().ball_evictions > 0) {
        break;
      }
      if (rng.Chance(0.3)) GrowRewriteFamily(rng, g, family);
      const PatternQuery& q = family[rng.Index(family.size())];
      const std::vector<NodeId> truth = reference.Answer(q);
      ASSERT_EQ(matcher.Answer(q), truth)
          << "trial " << trial << " probe " << probe << "\n"
          << q.ToString(g.schema());
      ASSERT_EQ(sm.Evaluate(q).matches, truth)
          << "trial " << trial << " probe " << probe << "\n"
          << q.ToString(g.schema());
    }
    EXPECT_LT(probe, 20000) << "the ball memos never reached their budget";
    EXPECT_GT(matcher.stats().ball_hits, 0u);
    EXPECT_GT(sm.matcher().stats().ball_hits, 0u);
  }
}

TEST_P(MatcherPropertyTest, ValuationsMatchAFreshMatcher) {
  // The memo keeps each ball in BFS order, so a long-lived matcher emits
  // exactly the valuations, in exactly the order, of a matcher that has
  // never seen another probe (refine-operator generation caps Valuations,
  // so the order decides which valuations it sees).
  Rng rng(static_cast<uint64_t>(GetParam()) * 409 + 2);
  uint64_t hits = 0;
  for (int trial = 0; trial < 4; ++trial) {
    Graph g = RandomAttributedGraph(rng, 16, 40, 3);
    DistanceIndex dist(g);
    Matcher long_lived(g, &dist);
    std::vector<PatternQuery> family = {RandomQuery(rng, g, 4)};
    while (family.size() < 5) GrowRewriteFamily(rng, g, family);
    for (int probe = 0; probe < 12; ++probe) {
      const PatternQuery& q = family[rng.Index(family.size())];
      const size_t limit = 1 + rng.Index(6);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        std::vector<std::vector<NodeId>> got, want;
        const QueryKey key = QueryKey::Of(q);
        long_lived.Valuations(q, key, v, limit,
                              [&](const std::vector<NodeId>& a) {
                                got.push_back(a);
                                return true;
                              });
        Matcher fresh(g, &dist);
        fresh.Valuations(q, key, v, limit, [&](const std::vector<NodeId>& a) {
          want.push_back(a);
          return true;
        });
        EXPECT_EQ(got, want) << "trial " << trial << " probe " << probe
                             << " focus " << v << "\n"
                             << q.ToString(g.schema());
      }
    }
    hits += long_lived.stats().ball_hits;
  }
  EXPECT_GT(hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Forward checking against the search without it. PlainSearch walks the
// matcher's own plan in step order with no ball memo and no forward checks:
// each step's candidates are swept fresh, in BFS order with the anchor match
// left out, then tested for `allowed`, injectivity and the step's distance
// checks. That is the search before forward checking, so its valuations, in
// their order, are what Matcher::Valuations must emit. Distances and filters
// come from code written here (BFS, IsCandidate), not from the matcher.

class PlainSearch {
 public:
  explicit PlainSearch(const Graph& g) : g_(g) {}

  using Callback = std::function<bool(const std::vector<NodeId>&)>;

  /// Valuations with h(focus) = v, at most `limit`, in search order.
  void Valuations(const PatternQuery& q, const Matcher::MatchPlan& plan,
                  NodeId v,
                  const std::vector<const std::vector<NodeId>*>* allowed,
                  size_t limit, const Callback& cb) {
    if (!IsCandidate(g_, q, q.focus(), v)) return;
    if (allowed != nullptr && !Allowed(*allowed, q.focus(), v)) return;
    std::vector<NodeId> assign(q.num_nodes(), kInvalidNode);
    assign[q.focus()] = v;
    size_t emitted = 0;
    Extend(q, plan, 0, assign, allowed, limit, emitted, cb);
  }

 private:
  static bool Allowed(const std::vector<const std::vector<NodeId>*>& allowed,
                      QNodeId u, NodeId v) {
    return allowed[u] == nullptr ||
           std::binary_search(allowed[u]->begin(), allowed[u]->end(), v);
  }

  // Nodes within `bound` hops of `src` along (out = true) or against edge
  // direction, in BFS order, src first.
  std::vector<NodeId> Ball(NodeId src, uint32_t bound, bool out) const {
    std::vector<uint32_t> dist(g_.num_nodes(), kInfDist);
    std::vector<NodeId> queue = {src};
    dist[src] = 0;
    for (size_t head = 0; head < queue.size(); ++head) {
      const NodeId x = queue[head];
      if (dist[x] >= bound) continue;
      for (NodeId y : out ? g_.out(x) : g_.in(x)) {
        if (dist[y] != kInfDist) continue;
        dist[y] = dist[x] + 1;
        queue.push_back(y);
      }
    }
    return queue;
  }

  bool Within(NodeId from, NodeId to, uint32_t bound) const {
    const std::vector<NodeId> ball = Ball(from, bound, /*out=*/true);
    return std::find(ball.begin(), ball.end(), to) != ball.end();
  }

  bool Extend(const PatternQuery& q, const Matcher::MatchPlan& plan,
              size_t depth, std::vector<NodeId>& assign,
              const std::vector<const std::vector<NodeId>*>* allowed,
              size_t limit, size_t& emitted, const Callback& cb) {
    if (depth == plan.steps.size()) {
      ++emitted;
      return cb(assign) && emitted < limit;
    }
    const Matcher::PlanStep& step = plan.steps[depth];
    const NodeId anchor = assign[step.anchor];
    for (NodeId v : Ball(anchor, step.anchor_bound, step.anchor_outgoing)) {
      if (v == anchor || !IsCandidate(g_, q, step.node, v)) continue;
      if (allowed != nullptr && !Allowed(*allowed, step.node, v)) continue;
      if (std::find(assign.begin(), assign.end(), v) != assign.end()) continue;
      bool ok = true;
      for (const Matcher::PlanStep::Check& check : step.checks) {
        const NodeId other = assign[check.other];
        ok = check.outgoing ? Within(v, other, check.bound)
                            : Within(other, v, check.bound);
        if (!ok) break;
      }
      if (!ok) continue;
      assign[step.node] = v;
      const bool keep_going =
          Extend(q, plan, depth + 1, assign, allowed, limit, emitted, cb);
      assign[step.node] = kInvalidNode;
      if (!keep_going) return false;
    }
    return true;
  }

  const Graph& g_;
};

// A one-operator variant of `q` over a preset graph: a literal dropped, an
// edge bound changed, an edge removed (RmE), or the focus moved.
PatternQuery PresetRewrite(Rng& rng, const PatternQuery& q) {
  PatternQuery r = q;
  const QNodeId u = static_cast<QNodeId>(rng.Index(r.num_nodes()));
  const size_t pick = rng.Index(4);
  if (pick == 0 && !r.node(u).literals.empty()) {
    r.RemoveLiteralAt(u, rng.Index(r.node(u).literals.size()));
  } else if (pick == 1 && r.num_edges() > 0) {
    r.edge(rng.Index(r.num_edges())).bound =
        static_cast<uint32_t>(rng.Int(1, 3));
  } else if (pick == 2 && r.num_edges() > 1) {
    r.RemoveEdgeAt(rng.Index(r.num_edges()));
  } else {
    r.SetFocus(u);
  }
  return r;
}

TEST(ForwardCheckTest, ValuationsAndVerdictsMatchThePlainSearchOnPresets) {
  uint64_t prunes = 0, plans_with_dependents = 0, valuations = 0;
  for (const GraphSpec& spec : {ImdbLike(0.006), DbpediaLike(0.006),
                                OffshoreLike(0.006), WatDivLike(0.006)}) {
    const Graph g = GenerateGraph(spec);
    DistanceIndex dist(g);
    ReferenceMatcher reference(g);
    PlainSearch plain(g);
    Matcher matcher(g, &dist);  // long-lived: its ball memo spans rewrites
    Rng rng(41);
    for (int trial = 0; trial < 6; ++trial) {
      QueryGenOptions opts;
      opts.seed = 500 + static_cast<uint64_t>(trial);
      opts.num_edges = 2 + rng.Index(2);
      opts.max_literals = rng.Index(2);
      opts.max_bound = 2;
      opts.min_answers = 1;
      const auto base = GenerateGroundTruthQuery(g, opts);
      if (!base.has_value()) continue;
      std::vector<PatternQuery> family = {*base};
      while (family.size() < 4) {
        family.push_back(PresetRewrite(rng, family[rng.Index(family.size())]));
      }
      for (const PatternQuery& q : family) {
        const std::string where = spec.name + " trial=" +
                                  std::to_string(trial) + "\n" +
                                  q.ToString(g.schema());
        const QueryKey key = QueryKey::Of(q);
        const Matcher::MatchPlan plan = matcher.PlanFor(q, key);
        bool has_dependents = !plan.focus_dependents.empty();
        for (const Matcher::PlanStep& step : plan.steps) {
          has_dependents = has_dependents || !step.dependents.empty();
        }
        plans_with_dependents += has_dependents ? 1 : 0;
        // Verdicts, against the brute-force oracle.
        ASSERT_EQ(matcher.Answer(q), reference.Answer(q)) << where;
        // Every valuation in search order, capped and uncapped.
        for (NodeId v : ComputeCandidates(g, q, q.focus())) {
          const size_t limit = rng.Chance(0.5) ? 1 + rng.Index(6) : 200;
          std::vector<std::vector<NodeId>> got, want;
          matcher.Valuations(q, key, v, limit,
                             [&](const std::vector<NodeId>& a) {
                               got.push_back(a);
                               return true;
                             });
          plain.Valuations(q, plan, v, nullptr, limit,
                           [&](const std::vector<NodeId>& a) {
                             want.push_back(a);
                             return true;
                           });
          ASSERT_EQ(got, want) << where << "\nfocus=" << v;
          valuations += got.size();
        }
        // Restricted verdicts: a random half of some node's candidates.
        const QNodeId u = static_cast<QNodeId>(rng.Index(q.num_nodes()));
        std::vector<NodeId> half;
        for (NodeId w : ComputeCandidates(g, q, u)) {
          if (rng.Chance(0.5)) half.push_back(w);
        }
        std::vector<const std::vector<NodeId>*> allowed(q.num_nodes(),
                                                         nullptr);
        allowed[u] = &half;
        const Matcher::MatchPlan& held = matcher.PlanFor(q, key);
        for (NodeId v : ComputeCandidates(g, q, q.focus())) {
          bool want = false;
          plain.Valuations(q, plan, v, &allowed, 1,
                           [&](const std::vector<NodeId>&) {
                             want = true;
                             return false;
                           });
          ASSERT_EQ(matcher.IsMatchRestricted(q, held, v, allowed), want)
              << where << "\nfocus=" << v << " restricted u" << u;
        }
      }
    }
    prunes += matcher.stats().forward_prunes;
  }
  // The comparison saw forward checks fire, on plans that have them.
  EXPECT_GT(plans_with_dependents, 0u);
  EXPECT_GT(prunes, 0u);
  EXPECT_GT(valuations, 0u);
}

}  // namespace
}  // namespace wqe
