#include "match/star_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "gen/datasets.h"
#include "gen/product_demo.h"
#include "gen/synthetic.h"
#include "match/candidates.h"
#include "workload/query_gen.h"

namespace wqe {
namespace {

class StarTableFixture : public ::testing::Test {
 protected:
  StarTableFixture() : materializer_(demo_.graph()) {}

  ProductDemo demo_;
  StarMaterializer materializer_;
};

TEST_F(StarTableFixture, FocusStarRowsAreAnswerSuperset) {
  PatternQuery q = demo_.Query();
  auto stars = DecomposeStars(q);
  ASSERT_EQ(stars.size(), 1u);
  auto table = materializer_.Materialize(q, stars[0]);
  // Center = focus: the viable centers must cover {P1, P2, P5} and may not
  // include P3/P4 (they fail the price literal so they are not candidates).
  const auto& centers = table->center_occurrences();
  for (int i : {1, 2, 5}) {
    EXPECT_TRUE(std::binary_search(centers.begin(), centers.end(), demo_.p(i)))
        << "P" << i;
  }
  EXPECT_FALSE(
      std::binary_search(centers.begin(), centers.end(), demo_.p(3)));
}

TEST_F(StarTableFixture, SpokeOccurrencesHoldBallMatches) {
  PatternQuery q = demo_.Query();
  auto stars = DecomposeStars(q);
  auto table = materializer_.Materialize(q, stars[0]);
  // The sensor spoke (bound 2): the one sensor lies within two hops.
  bool found = false;
  for (size_t s = 0; s < stars[0].spokes.size(); ++s) {
    if (stars[0].spokes[s].other == 3) {
      found = true;
      EXPECT_EQ(table->spoke_occurrences(s),
                std::vector<NodeId>{demo_.sensor()});
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(StarTableFixture, FocusOccurrencesForFocusCenteredStar) {
  PatternQuery q = demo_.Query();
  auto stars = DecomposeStars(q);
  auto table = materializer_.Materialize(q, stars[0]);
  const auto& occ = table->focus_occurrences();
  EXPECT_EQ(occ.size(), 3u);
  EXPECT_TRUE(std::is_sorted(occ.begin(), occ.end()));
}

TEST_F(StarTableFixture, NonViableCentersGetNoRow) {
  // A star requiring a spoke no center can satisfy: Cellphone -> Retailer
  // (label absent from the demo graph).
  const Graph& g = demo_.graph();
  PatternQuery q;
  QNodeId cell = q.AddNode(g.schema().LookupLabel("Cellphone"));
  QNodeId missing = q.AddNode(/*label=*/9999);  // label absent from G
  q.SetFocus(cell);
  q.AddEdge(cell, missing, 1);
  auto stars = DecomposeStars(q);
  auto table = materializer_.Materialize(q, stars[0]);
  EXPECT_TRUE(table->center_occurrences().empty());
  EXPECT_TRUE(table->focus_occurrences().empty());
}

TEST_F(StarTableFixture, AugmentedStarTracksFocusInRange) {
  // Chain: Cellphone (focus) -> Carrier, Carrier-centered star is augmented.
  const Graph& g = demo_.graph();
  PatternQuery q;
  QNodeId cell = q.AddNode(g.schema().LookupLabel("Cellphone"));
  QNodeId carrier = q.AddNode(g.schema().LookupLabel("Carrier"));
  QNodeId brand = q.AddNode(g.schema().LookupLabel("Brand"));
  q.SetFocus(cell);
  q.AddEdge(cell, carrier, 1);
  q.AddEdge(cell, brand, 1);

  StarQuery star;
  star.center = carrier;
  star.contains_focus = false;
  star.aug_bound = 1;
  auto table = materializer_.Materialize(q, star);
  const auto& centers = table->center_occurrences();
  EXPECT_TRUE(
      std::binary_search(centers.begin(), centers.end(), demo_.sprint()));
  EXPECT_FALSE(table->focus_occurrences().empty());
}

TEST_F(StarTableFixture, OccurrencesPerRole) {
  PatternQuery q = demo_.Query();
  auto stars = DecomposeStars(q);
  auto table = materializer_.Materialize(q, stars[0]);
  EXPECT_EQ(table->center_occurrences().size(), 3u);  // P1, P2, P5
  // Find the carrier spoke of the canonical order.
  for (size_t s = 0; s < stars[0].spokes.size(); ++s) {
    if (stars[0].spokes[s].other == 2) {
      EXPECT_EQ(table->spoke_occurrences(s).size(), 2u);  // both carriers
    }
  }
}

TEST_F(StarTableFixture, SpokeOrderIsCanonicalAcrossEquivalentQueries) {
  // Two structurally identical queries whose node ids differ must decompose
  // to stars with identical signatures and identical spoke order — the view
  // cache shares tables between them by index.
  const Graph& g = demo_.graph();
  PatternQuery a = demo_.Query();

  PatternQuery b;  // same pattern, nodes inserted in a different order
  const QNodeId sensor = b.AddNode(g.schema().LookupLabel("Sensor"));
  const QNodeId carrier = b.AddNode(g.schema().LookupLabel("Carrier"));
  const QNodeId cell = b.AddNode(g.schema().LookupLabel("Cellphone"));
  const QNodeId brand = b.AddNode(g.schema().LookupLabel("Brand"));
  b.SetFocus(cell);
  b.AddLiteral(cell, {g.schema().LookupAttr("price"), CmpOp::kGe, Value::Num(840)});
  b.AddLiteral(brand, {g.schema().LookupAttr("name"), CmpOp::kEq,
                       Value::Str(g.schema().strings().Lookup("Samsung"))});
  b.AddEdge(cell, sensor, 2);
  b.AddEdge(cell, carrier, 1);
  b.AddEdge(cell, brand, 1);

  auto sa = DecomposeStars(a);
  auto sb = DecomposeStars(b);
  ASSERT_EQ(sa.size(), 1u);
  ASSERT_EQ(sb.size(), 1u);
  EXPECT_EQ(sa[0].Signature(a), sb[0].Signature(b));
  // Spoke k of a and spoke k of b map to the same role.
  ASSERT_EQ(sa[0].spokes.size(), sb[0].spokes.size());
  for (size_t s = 0; s < sa[0].spokes.size(); ++s) {
    EXPECT_EQ(a.node(sa[0].spokes[s].other).label,
              b.node(sb[0].spokes[s].other).label);
    EXPECT_EQ(sa[0].spokes[s].bound, sb[0].spokes[s].bound);
  }
}

TEST_F(StarTableFixture, EntryCountReflectsContent) {
  PatternQuery q = demo_.Query();
  auto stars = DecomposeStars(q);
  auto table = materializer_.Materialize(q, stars[0]);
  // The demo's first star is focus-centered: its focus role is the center
  // set, stored (and counted) once.
  ASSERT_EQ(stars[0].center, q.focus());
  EXPECT_EQ(&table->focus_occurrences(), &table->center_occurrences());
  size_t stored = table->center_occurrences().size();
  for (size_t s = 0; s < stars[0].spokes.size(); ++s) {
    stored += table->spoke_occurrences(s).size();
  }
  EXPECT_EQ(table->EntryCount(), stored);
  EXPECT_GT(table->EntryCount(), table->center_occurrences().size());
}

// ---------------------------------------------------------------------------
// Oracle: the occurrence sets against today's per-row definition of §2.3,
// recomputed by brute force. A row exists for each center candidate c whose
// every spoke has a match in c's bounded ball (c itself excluded) and, for an
// augmented star, which has a focus candidate within the augmented bound
// ignoring direction (c itself included). The roles' occurrences are the
// unions over the rows. Distances come from a plain BFS written here, not
// from BoundedBfs.

enum class Dir { kOut, kIn, kUndirected };

std::vector<uint32_t> HopDistances(const Graph& g, NodeId src, Dir dir) {
  std::vector<uint32_t> dist(g.num_nodes(), kInfDist);
  std::vector<NodeId> queue = {src};
  dist[src] = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    const NodeId x = queue[head];
    auto relax = [&](std::span<const NodeId> next) {
      for (NodeId y : next) {
        if (dist[y] != kInfDist) continue;
        dist[y] = dist[x] + 1;
        queue.push_back(y);
      }
    };
    if (dir != Dir::kIn) relax(g.out(x));
    if (dir != Dir::kOut) relax(g.in(x));
  }
  return dist;
}

struct Occurrences {
  std::vector<NodeId> centers, focus;
  std::vector<std::vector<NodeId>> spokes;
};

Occurrences RowOracle(const Graph& g, const PatternQuery& q,
                      const StarQuery& star) {
  Occurrences occ;
  occ.spokes.resize(star.spokes.size());
  const bool augmented = !star.contains_focus && star.aug_bound > 0;
  for (NodeId c = 0; c < g.num_nodes(); ++c) {
    if (!IsCandidate(g, q, star.center, c)) continue;
    std::vector<std::vector<NodeId>> cells(star.spokes.size());
    bool viable = true;
    for (size_t s = 0; s < star.spokes.size() && viable; ++s) {
      const StarSpoke& spoke = star.spokes[s];
      const auto dist =
          HopDistances(g, c, spoke.outgoing ? Dir::kOut : Dir::kIn);
      for (NodeId w = 0; w < g.num_nodes(); ++w) {
        if (w != c && dist[w] <= spoke.bound &&
            IsCandidate(g, q, spoke.other, w)) {
          cells[s].push_back(w);
        }
      }
      viable = !cells[s].empty();
    }
    if (!viable) continue;
    std::vector<NodeId> focus_cell;
    if (augmented) {
      const auto dist = HopDistances(g, c, Dir::kUndirected);
      for (NodeId w = 0; w < g.num_nodes(); ++w) {
        if (dist[w] <= star.aug_bound && IsCandidate(g, q, q.focus(), w)) {
          focus_cell.push_back(w);
        }
      }
      if (focus_cell.empty()) continue;
    }
    occ.centers.push_back(c);
    for (size_t s = 0; s < cells.size(); ++s) {
      occ.spokes[s].insert(occ.spokes[s].end(), cells[s].begin(),
                           cells[s].end());
    }
    if (star.center == q.focus()) {
      occ.focus.push_back(c);
    } else if (star.focus_spoke >= 0) {
      const auto& cell = cells[static_cast<size_t>(star.focus_spoke)];
      occ.focus.insert(occ.focus.end(), cell.begin(), cell.end());
    } else {
      occ.focus.insert(occ.focus.end(), focus_cell.begin(), focus_cell.end());
    }
  }
  auto sort_unique = [](std::vector<NodeId>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  sort_unique(occ.focus);
  for (auto& cell : occ.spokes) sort_unique(cell);
  return occ;
}

/// Checks each role of `table` (built for `star` of `q`) against the row
/// oracle, and that a focus-centered or focus-spoke star serves its focus
/// role from the center or spoke set, counted once by EntryCount.
void ExpectTableMatches(const PatternQuery& q, const StarQuery& star,
                        const StarTable& table, const Occurrences& want,
                        const std::string& where) {
  EXPECT_EQ(table.center_occurrences(), want.centers) << where;
  EXPECT_EQ(table.focus_occurrences(), want.focus) << where;
  size_t stored = table.center_occurrences().size();
  for (size_t s = 0; s < star.spokes.size(); ++s) {
    EXPECT_EQ(table.spoke_occurrences(s), want.spokes[s])
        << where << " spoke=" << s;
    stored += table.spoke_occurrences(s).size();
  }
  if (star.center == q.focus()) {
    EXPECT_EQ(&table.focus_occurrences(), &table.center_occurrences()) << where;
  } else if (star.focus_spoke >= 0) {
    EXPECT_EQ(&table.focus_occurrences(),
              &table.spoke_occurrences(static_cast<size_t>(star.focus_spoke)))
        << where;
  } else {
    stored += table.focus_occurrences().size();
  }
  EXPECT_EQ(table.EntryCount(), stored) << where;
}

/// Materializes `star` under every thread count and pipeline setting and
/// checks each role's occurrences against the row oracle. `long_lived`
/// builders (optional) have built other stars over `g` before, so their
/// focus-proximity memo is warm.
void ExpectMatchesOracle(const Graph& g, const PatternQuery& q,
                         const StarQuery& star, const std::string& what,
                         const std::vector<StarMaterializer*>& long_lived = {}) {
  const Occurrences want = RowOracle(g, q, star);
  for (size_t threads : {1u, 4u}) {
    for (bool pipeline : {true, false}) {
      StarMaterializer mat(g);
      mat.set_num_threads(threads);
      mat.set_use_pipeline(pipeline);
      const std::string where = what + " threads=" + std::to_string(threads) +
                                " pipeline=" + std::to_string(pipeline);
      ExpectTableMatches(q, star, *mat.Materialize(q, star), want, where);
    }
  }
  for (size_t i = 0; i < long_lived.size(); ++i) {
    ExpectTableMatches(q, star, *long_lived[i]->Materialize(q, star), want,
                       what + " long-lived builder " + std::to_string(i));
  }
}

/// Builders that live across a whole test graph, at 1 and 4 threads.
struct LongLivedBuilders {
  explicit LongLivedBuilders(const Graph& g) : serial(g), parallel(g) {
    parallel.set_num_threads(4);
  }
  std::vector<StarMaterializer*> all() { return {&serial, &parallel}; }

  StarMaterializer serial, parallel;
};

TEST(StarTableOracleTest, OccurrencesMatchPerRowDefinitionOnPresets) {
  size_t focus_centered = 0, focus_spoke = 0, augmented = 0, unreachable = 0;
  for (const GraphSpec& spec : {ImdbLike(0.02), DbpediaLike(0.02)}) {
    const Graph g = GenerateGraph(spec);
    LongLivedBuilders builders(g);
    Rng rng(7);
    for (int trial = 0; trial < 12; ++trial) {
      QueryGenOptions opts;
      opts.seed = 100 + static_cast<uint64_t>(trial);
      opts.num_edges = 1 + rng.Index(4);
      opts.max_literals = rng.Index(3);
      opts.max_bound = 3;
      opts.min_answers = 1;
      const auto q = GenerateGroundTruthQuery(g, opts);
      if (!q.has_value()) continue;
      for (const StarQuery& star : DecomposeStars(*q)) {
        const std::string what =
            spec.name + " trial=" + std::to_string(trial) + " " +
            star.Signature(*q);
        if (star.center == q->focus()) ++focus_centered;
        if (star.focus_spoke >= 0) ++focus_spoke;
        ExpectMatchesOracle(g, *q, star, what, builders.all());
        if (star.contains_focus) continue;
        ++augmented;
        // The same star at other augmented bounds, 0 (focus unreachable in
        // the pattern) included, up to the bounds of the long tail.
        for (uint32_t bound : {0u, 1u, 3u, 4u, 5u}) {
          StarQuery variant = star;
          variant.aug_bound = bound;
          unreachable += bound == 0 ? 1 : 0;
          ExpectMatchesOracle(g, *q, variant,
                              what + " aug_bound=" + std::to_string(bound),
                              builders.all());
        }
      }
    }
  }
  // Every kind of star was exercised.
  EXPECT_GT(focus_centered, 0u);
  EXPECT_GT(focus_spoke, 0u);
  EXPECT_GT(augmented, 0u);
  EXPECT_GT(unreachable, 0u);
}

// A focus filter no node passes: an augmented star then has no viable
// center, whatever its bound. The long-lived builders first see the same
// stars with the satisfiable filter, so a memo keyed on anything but the
// focus filter would serve the wrong proximity marks.
TEST(StarTableOracleTest, FocusFilterWithoutCandidatesLeavesNoViableCenter) {
  size_t checked = 0;
  for (const GraphSpec& spec : {ImdbLike(0.02), DbpediaLike(0.02)}) {
    const Graph g = GenerateGraph(spec);
    LongLivedBuilders builders(g);
    for (int trial = 0; trial < 12; ++trial) {
      QueryGenOptions opts;
      opts.seed = 300 + static_cast<uint64_t>(trial);
      opts.num_edges = 2 + static_cast<size_t>(trial % 3);
      opts.max_literals = 1;
      opts.max_bound = 3;
      opts.min_answers = 1;
      const auto q = GenerateGroundTruthQuery(g, opts);
      if (!q.has_value()) continue;
      // A value no node carries, on an attribute the graph has.
      PatternQuery empty_focus = *q;
      empty_focus.AddLiteral(empty_focus.focus(),
                             {AttrId{0}, CmpOp::kEq, Value::Num(-1e300)});
      ASSERT_TRUE(ComputeCandidates(g, empty_focus, empty_focus.focus())
                      .empty());
      for (const StarQuery& star : DecomposeStars(*q)) {
        if (star.contains_focus) continue;
        for (uint32_t bound : {1u, 3u, 5u}) {
          StarQuery variant = star;
          variant.aug_bound = bound;
          const std::string what = spec.name + " trial=" +
                                   std::to_string(trial) + " aug_bound=" +
                                   std::to_string(bound);
          ExpectMatchesOracle(g, *q, variant, what, builders.all());
          ExpectMatchesOracle(g, empty_focus, variant, what + " empty focus",
                              builders.all());
          for (StarMaterializer* mat : builders.all()) {
            EXPECT_TRUE(
                mat->Materialize(empty_focus, variant)->center_occurrences()
                    .empty())
                << what;
          }
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

// A center lying in another viable center's spoke ball: n1 is both a center
// (its spoke reaches n2) and n0's spoke match. A single multi-source sweep
// over all centers would see n1 at distance 0 and drop it from the spoke.
TEST(StarTableOracleTest, CenterInsideAnotherCentersSpokeBall) {
  Graph g;
  const NodeId n0 = g.AddNode("A"), n1 = g.AddNode("A"), n2 = g.AddNode("A");
  g.AddEdge(n0, n1);
  g.AddEdge(n1, n2);
  g.Finalize();
  PatternQuery q;
  const LabelId a = g.schema().LookupLabel("A");
  const QNodeId u0 = q.AddNode(a), u1 = q.AddNode(a);
  q.AddEdge(u0, u1, 1);
  q.SetFocus(u0);
  StarQuery star;
  star.center = u0;
  star.spokes = {{u1, 1, true}};
  star.contains_focus = true;
  StarMaterializer mat(g);
  const auto table = mat.Materialize(q, star);
  EXPECT_EQ(table->center_occurrences(), (std::vector<NodeId>{n0, n1}));
  EXPECT_EQ(table->spoke_occurrences(0), (std::vector<NodeId>{n1, n2}));
  ExpectMatchesOracle(g, q, star, "center-in-spoke-ball");
}

// A cycle back to the center: n0 reaches itself in two hops, but a center's
// spoke ball never holds the center, so the wildcard spoke sees only n1.
TEST(StarTableOracleTest, CycleBackToTheCenterStaysOutOfItsSpoke) {
  Graph g;
  const NodeId n0 = g.AddNode("A"), n1 = g.AddNode("B");
  g.AddEdge(n0, n1);
  g.AddEdge(n1, n0);
  g.Finalize();
  PatternQuery q;
  const QNodeId u0 = q.AddNode(g.schema().LookupLabel("A"));
  const QNodeId u1 = q.AddNode(kWildcardSymbol);
  q.AddEdge(u0, u1, 2);
  q.SetFocus(u0);
  StarQuery star;
  star.center = u0;
  star.spokes = {{u1, 2, true}};
  star.contains_focus = true;
  StarMaterializer mat(g);
  const auto table = mat.Materialize(q, star);
  EXPECT_EQ(table->center_occurrences(), std::vector<NodeId>{n0});
  EXPECT_EQ(table->spoke_occurrences(0), std::vector<NodeId>{n1});
  ExpectMatchesOracle(g, q, star, "cycle-to-center");
}

}  // namespace
}  // namespace wqe
