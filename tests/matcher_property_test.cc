// Property suite: the production Matcher and the star-view StarMatcher agree
// with a brute-force enumeration oracle on random small graphs and random
// queries — including wildcard labels, multi-bound edges, cycles, and
// literal predicates.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "match/star_matcher.h"
#include "reference_matcher.h"

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
  // budget (small on graphs this size) and been reset at least once.
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
    for (; probe < 3000; ++probe) {
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
    EXPECT_LT(probe, 3000) << "the ball memos never reached their budget";
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
        long_lived.Valuations(q, v, limit, [&](const std::vector<NodeId>& a) {
          got.push_back(a);
          return true;
        });
        Matcher fresh(g, &dist);
        fresh.Valuations(q, v, limit, [&](const std::vector<NodeId>& a) {
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

}  // namespace
}  // namespace wqe
