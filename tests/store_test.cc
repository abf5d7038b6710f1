#include "store/artifact_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "chase/eval.h"
#include "chase/solve.h"
#include "gen/product_demo.h"
#include "graph/adom.h"
#include "graph/distance_index.h"
#include "index_pins.h"
#include "match/star.h"
#include "match/star_table.h"
#include "match/view_cache.h"
#include "obs/observability.h"
#include "store/format.h"
#include "store/serde.h"

namespace wqe {
namespace {

namespace fs = std::filesystem;

// Fresh per-test cache directory under the gtest temp dir.
class StoreFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/wqe_store_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  const Graph& graph() { return demo_.graph(); }
  uint64_t fp() { return store::Serde::GraphFingerprint(graph()); }
  store::ArtifactStore MakeStore() { return store::ArtifactStore(dir_, fp()); }

  /// Flips one byte at `offset` (negative = from the end) in an artifact.
  static void FlipByte(const std::string& path, long offset) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    const auto dir = offset < 0 ? std::ios::end : std::ios::beg;
    f.seekg(offset, dir);
    char c = 0;
    f.read(&c, 1);
    f.seekp(offset, dir);
    c = static_cast<char>(c ^ 0x5a);
    f.write(&c, 1);
  }

  /// Materializes the demo query's star views into `cache`, then persists
  /// them to `s`.
  void SaveDemoViews(store::ArtifactStore& s, ViewCache& cache) {
    const PatternQuery q = demo_.Query();
    StarMaterializer mat(graph());
    for (const StarQuery& star : DecomposeStars(q)) {
      cache.Put(star.Signature(q), mat.Materialize(q, star));
    }
    ASSERT_GT(cache.size(), 0u);
    ASSERT_TRUE(s.SaveStarViews(cache, /*max_persisted_entries=*/1u << 20)
                    .ok());
  }

  static void Truncate(const std::string& path, size_t keep) {
    std::error_code ec;
    fs::resize_file(path, keep, ec);
    ASSERT_FALSE(ec) << ec.message();
  }

  ProductDemo demo_;
  std::string dir_;
};

TEST_F(StoreFixture, GraphFingerprintStableAndSensitive) {
  EXPECT_EQ(fp(), store::Serde::GraphFingerprint(graph()));

  Graph other;
  other.AddNode("A");
  other.AddNode("B");
  other.AddEdge(0, 1, kWildcardSymbol);
  other.Finalize();
  Graph other2;
  other2.AddNode("A");
  other2.AddNode("B");
  other2.AddEdge(1, 0, kWildcardSymbol);  // reversed edge: different graph
  other2.Finalize();
  EXPECT_NE(store::Serde::GraphFingerprint(other),
            store::Serde::GraphFingerprint(other2));
}

TEST_F(StoreFixture, DistanceIndexParamsChangeIsAMiss) {
  auto s = MakeStore();
  DistanceIndex::Options opts;
  GraphIndexes built(graph(), /*num_threads=*/1);
  ASSERT_TRUE(
      s.SaveBundle(graph(), built.adom, built.diameter, built.dist, opts).ok());
  DistanceIndex::Options other = opts;
  other.use_pll = !other.use_pll;
  std::unique_ptr<MappedServingState> state;
  EXPECT_FALSE(OpenServingState(s, other, {}, &state).ok());
  EXPECT_TRUE(OpenServingState(s, opts, {}, &state).ok());
}

TEST_F(StoreFixture, DistanceIndexThreadCountDoesNotChangeParams) {
  DistanceIndex::Options a;
  DistanceIndex::Options b = a;
  b.num_threads = 8;  // parallel build is byte-identical; same artifact
  EXPECT_EQ(store::DistanceIndexParams(a), store::DistanceIndexParams(b));
}

TEST_F(StoreFixture, StarViewsRoundTripThroughCache) {
  auto s = MakeStore();
  ViewCache warmed;
  const Status miss = s.WarmStarViews(graph(), &warmed);
  EXPECT_EQ(miss.code(), Status::Code::kNotFound);  // miss, not corruption
  ViewCache cache;
  SaveDemoViews(s, cache);

  ASSERT_TRUE(s.WarmStarViews(graph(), &warmed).ok());
  EXPECT_EQ(warmed.size(), cache.size());
  EXPECT_EQ(warmed.entry_count(), cache.entry_count());
  // Each warmed table re-encodes to the same bytes as the live one.
  cache.ForEach([&](const std::string& sig,
                    const std::shared_ptr<const StarTable>& live) {
    auto loaded = warmed.Get(sig);
    ASSERT_NE(loaded, nullptr) << sig;
    store::Writer a, b;
    store::Serde::EncodeStarTable(*live, a);
    store::Serde::EncodeStarTable(*loaded, b);
    EXPECT_EQ(a.bytes(), b.bytes()) << sig;
  });
}

TEST_F(StoreFixture, CorruptedPayloadDegradesToRebuild) {
  auto s = MakeStore();
  ViewCache cache;
  SaveDemoViews(s, cache);
  const std::string path = s.ArtifactPath(store::ArtifactKind::kStarViews);
  FlipByte(path, -1);  // last payload byte: checksum must catch it
  ViewCache warmed;
  const Status st = s.WarmStarViews(graph(), &warmed);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.code(), Status::Code::kNotFound);  // rejected, not missing
  // The rebuild path overwrites the bad file and the store recovers.
  ASSERT_TRUE(s.SaveStarViews(cache, 1u << 20).ok());
  ASSERT_TRUE(s.WarmStarViews(graph(), &warmed).ok());
  EXPECT_EQ(warmed.size(), cache.size());
}

TEST_F(StoreFixture, TruncatedFileIsRejected) {
  auto s = MakeStore();
  ViewCache cache;
  SaveDemoViews(s, cache);
  const std::string path = s.ArtifactPath(store::ArtifactKind::kStarViews);
  Truncate(path, 10);  // not even a whole header
  ViewCache warmed;
  const Status st = s.WarmStarViews(graph(), &warmed);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.code(), Status::Code::kNotFound);
  EXPECT_EQ(warmed.size(), 0u);
}

TEST_F(StoreFixture, VersionBumpIsRejected) {
  auto s = MakeStore();
  ViewCache cache;
  SaveDemoViews(s, cache);
  const std::string path = s.ArtifactPath(store::ArtifactKind::kStarViews);
  FlipByte(path, 4);  // header version field
  ViewCache warmed;
  const Status st = s.WarmStarViews(graph(), &warmed);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("version"), std::string::npos) << st.ToString();
  EXPECT_EQ(warmed.size(), 0u);
}

TEST_F(StoreFixture, StarViewsInTheRowLayoutAreACleanMiss) {
  // A star-views file as written before tables became occurrence-only:
  // builder revision 1, and each table carried one row per viable center
  // (center id, one (node, distance) cell per spoke, the augmented focus
  // cell) ahead of its occurrence sets and a stored entry count. The header's
  // params check must turn it away before any table is decoded.
  struct RowCell {
    NodeId node;
    uint32_t dist;
  };
  const PatternQuery q = demo_.Query();
  StarMaterializer mat(graph());
  const std::vector<StarQuery> stars = DecomposeStars(q);
  store::Writer payload;
  payload.U64(stars.size());
  for (const StarQuery& star : stars) {
    const auto table = mat.Materialize(q, star);
    store::Writer t;
    t.U32(star.center);
    t.U64(star.spokes.size());
    for (const StarSpoke& sp : star.spokes) {
      t.U32(sp.other);
      t.U32(sp.bound);
      t.U8(sp.outgoing ? 1 : 0);
    }
    t.U32(static_cast<uint32_t>(star.focus_spoke));
    t.U8(star.contains_focus ? 1 : 0);
    t.U32(star.aug_bound);
    t.U32(q.focus());
    t.U64(table->center_occurrences().size());
    for (NodeId c : table->center_occurrences()) {
      t.U32(c);
      for (size_t s = 0; s < star.spokes.size(); ++s) {
        std::vector<RowCell> cell;
        for (NodeId w : table->spoke_occurrences(s)) cell.push_back({w, 1});
        t.PodVec(cell);
      }
      t.PodVec(std::vector<RowCell>());
    }
    t.PodVec(table->focus_occurrences());
    t.PodVec(table->center_occurrences());
    for (size_t s = 0; s < star.spokes.size(); ++s) {
      t.PodVec(table->spoke_occurrences(s));
    }
    t.U64(table->EntryCount());
    payload.Str(star.Signature(q));
    payload.U64(table->EntryCount());
    payload.Str(t.bytes());
  }
  auto s = MakeStore();
  const std::string path = s.ArtifactPath(store::ArtifactKind::kStarViews);
  fs::create_directories(fs::path(path).parent_path());
  ASSERT_TRUE(store::WriteFileAtomic(
                  path, store::SealFile(store::ArtifactKind::kStarViews, fp(),
                                        /*params=*/1, payload.Take()))
                  .ok());

  ViewCache warmed;
  const Status st = s.WarmStarViews(graph(), &warmed);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("builder-parameter"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(warmed.size(), 0u);
  // The rebuild overwrites the old file, and the next run warms from it.
  ViewCache cache;
  SaveDemoViews(s, cache);
  ASSERT_TRUE(s.WarmStarViews(graph(), &warmed).ok());
  EXPECT_EQ(warmed.size(), cache.size());
}

// Focus-centered (the demo query) and focus-spoke (the same pattern
// refocused on a spoke node) stars: the focus role is the center or that
// spoke's set, so a table encodes the center and spoke sets only, and the
// decoded table serves its focus role from the same set again.
TEST_F(StoreFixture, AliasedFocusRolesAreStoredOnceAndRoundTrip) {
  const PatternQuery centered = demo_.Query();
  const std::vector<StarQuery> centered_stars = DecomposeStars(centered);
  ASSERT_EQ(centered_stars[0].center, centered.focus());
  PatternQuery spoked = centered;
  spoked.SetFocus(centered_stars[0].spokes[0].other);

  StarMaterializer mat(graph());
  ViewCache cache;
  size_t centered_seen = 0, spoke_seen = 0;
  const PatternQuery* const queries[] = {&centered, &spoked};
  for (const PatternQuery* q : queries) {
    for (const StarQuery& star : DecomposeStars(*q)) {
      const bool is_centered = star.center == q->focus();
      if (!is_centered && star.focus_spoke < 0) continue;
      ++(is_centered ? centered_seen : spoke_seen);
      const auto table = mat.Materialize(*q, star);
      const auto alias = [&](const StarTable& t) {
        return is_centered
                   ? &t.center_occurrences()
                   : &t.spoke_occurrences(static_cast<size_t>(star.focus_spoke));
      };
      EXPECT_EQ(&table->focus_occurrences(), alias(*table));
      EXPECT_FALSE(table->focus_occurrences().empty());

      // Header, then one length-prefixed set per stored role.
      size_t want = 4 + 8 + 9 * star.spokes.size() + 4 + 1 + 4 + 4;
      size_t entries = table->center_occurrences().size();
      want += 8 + 4 * table->center_occurrences().size();
      for (size_t sp = 0; sp < star.spokes.size(); ++sp) {
        want += 8 + 4 * table->spoke_occurrences(sp).size();
        entries += table->spoke_occurrences(sp).size();
      }
      store::Writer w;
      store::Serde::EncodeStarTable(*table, w);
      EXPECT_EQ(w.bytes().size(), want);
      EXPECT_EQ(table->EntryCount(), entries);

      store::Reader r(w.bytes());
      std::shared_ptr<const StarTable> back;
      ASSERT_TRUE(
          store::Serde::DecodeStarTable(r, graph().num_nodes(), &back).ok());
      EXPECT_EQ(back->focus_occurrences(), table->focus_occurrences());
      EXPECT_EQ(&back->focus_occurrences(), alias(*back));
      cache.Put(star.Signature(*q), table);
    }
  }
  EXPECT_GT(centered_seen, 0u);
  EXPECT_GT(spoke_seen, 0u);

  // Through the star-views file.
  auto s = MakeStore();
  ASSERT_TRUE(s.SaveStarViews(cache, 1u << 20).ok());
  ViewCache warmed;
  ASSERT_TRUE(s.WarmStarViews(graph(), &warmed).ok());
  EXPECT_EQ(warmed.entry_count(), cache.entry_count());
  cache.ForEach([&](const std::string& sig,
                    const std::shared_ptr<const StarTable>& live) {
    const auto loaded = warmed.Get(sig);
    ASSERT_NE(loaded, nullptr) << sig;
    EXPECT_EQ(loaded->focus_occurrences(), live->focus_occurrences()) << sig;
  });
}

TEST_F(StoreFixture, StarViewsWithACopiedFocusRoleAreACleanMiss) {
  // A star-views file as written by builder revision 2: each table stored
  // its focus set even when it was a copy of the center or a spoke set. The
  // header's params check must turn it away before any table is decoded.
  const PatternQuery q = demo_.Query();
  StarMaterializer mat(graph());
  const std::vector<StarQuery> stars = DecomposeStars(q);
  store::Writer payload;
  payload.U64(stars.size());
  for (const StarQuery& star : stars) {
    const auto table = mat.Materialize(q, star);
    store::Writer t;
    t.U32(star.center);
    t.U64(star.spokes.size());
    for (const StarSpoke& sp : star.spokes) {
      t.U32(sp.other);
      t.U32(sp.bound);
      t.U8(sp.outgoing ? 1 : 0);
    }
    t.U32(static_cast<uint32_t>(star.focus_spoke));
    t.U8(star.contains_focus ? 1 : 0);
    t.U32(star.aug_bound);
    t.U32(q.focus());
    t.PodVec(table->focus_occurrences());
    t.PodVec(table->center_occurrences());
    for (size_t sp = 0; sp < star.spokes.size(); ++sp) {
      t.PodVec(table->spoke_occurrences(sp));
    }
    payload.Str(star.Signature(q));
    payload.U64(table->EntryCount() + table->focus_occurrences().size());
    payload.Str(t.bytes());
  }
  auto s = MakeStore();
  const std::string path = s.ArtifactPath(store::ArtifactKind::kStarViews);
  fs::create_directories(fs::path(path).parent_path());
  ASSERT_TRUE(store::WriteFileAtomic(
                  path, store::SealFile(store::ArtifactKind::kStarViews, fp(),
                                        /*params=*/2, payload.Take()))
                  .ok());

  ViewCache warmed;
  const Status st = s.WarmStarViews(graph(), &warmed);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("builder-parameter"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(warmed.size(), 0u);
}

TEST_F(StoreFixture, CorruptedStarViewsNeverHalfWarmTheCache) {
  auto s = MakeStore();
  ViewCache cache;
  SaveDemoViews(s, cache);
  FlipByte(s.ArtifactPath(store::ArtifactKind::kStarViews), -1);
  ViewCache warmed;
  EXPECT_FALSE(s.WarmStarViews(graph(), &warmed).ok());
  EXPECT_EQ(warmed.size(), 0u);  // all-or-nothing warm-up
}

TEST_F(StoreFixture, GraphIndexesColdAndWarmAreByteIdentical) {
  auto s = MakeStore();
  GraphIndexes cold(graph(), /*num_threads=*/1);
  std::unique_ptr<MappedServingState> first, warm;
  // First open misses, builds and writes the bundle; the second maps it.
  ASSERT_TRUE(OpenOrBuildServingState(graph(), s, 1, &first).ok());
  first.reset();
  ASSERT_TRUE(OpenServingState(s, DistanceIndex::Options(), {}, &warm).ok());
  EXPECT_EQ(warm->indexes.diameter, cold.diameter);
  EXPECT_EQ(store::Serde::EncodeAdom(warm->indexes.adom),
            store::Serde::EncodeAdom(cold.adom));
  ExpectSameDistanceIndex(warm->indexes.dist, cold.dist, graph().num_nodes());
}

TEST_F(StoreFixture, SolveColdThenWarmGivesIdenticalAnswers) {
  Request req;
  req.question = WhyQuestion{demo_.Query(), demo_.MakeExemplar()};
  req.options.max_steps = 200;

  // Cold: heap-built indexes, no store.
  const Response cold = Execute(graph(), req);
  ASSERT_TRUE(cold.ok());

  // Warm: a second OpenOrBuildServingState maps the bundle the first wrote.
  auto s = MakeStore();
  std::unique_ptr<MappedServingState> state;
  ASSERT_TRUE(OpenOrBuildServingState(graph(), s, 1, &state).ok());
  state.reset();
  obs::Observability warm_obs;
  s.set_observability(&warm_obs);
  ASSERT_TRUE(OpenOrBuildServingState(graph(), s, 1, &state).ok());
  // The warm open actually used the store (no rebuild)...
  EXPECT_EQ(warm_obs.metrics.counter("store.hits").Value(), 1u);
  EXPECT_EQ(warm_obs.metrics.counter("store.saves").Value(), 0u);
  const Response warm =
      Execute(state->graph(), &state->indexes, nullptr, nullptr, req);
  ASSERT_TRUE(warm.ok());

  // ...and produced the same answers, closeness, and matches.
  ASSERT_EQ(warm.result.answers.size(), cold.result.answers.size());
  for (size_t i = 0; i < warm.result.answers.size(); ++i) {
    const WhyAnswer& w = warm.result.answers[i];
    const WhyAnswer& c = cold.result.answers[i];
    EXPECT_EQ(w.fingerprint, c.fingerprint);
    EXPECT_EQ(w.rewrite.Fingerprint(), c.rewrite.Fingerprint());
    EXPECT_EQ(w.matches, c.matches);
    EXPECT_DOUBLE_EQ(w.closeness, c.closeness);
  }
}

TEST_F(StoreFixture, MutatedGraphRejectsStaleArtifacts) {
  auto s = MakeStore();
  ViewCache cache;
  SaveDemoViews(s, cache);
  // Same directory, different graph: the fingerprint key changes, so the
  // store looks in a different per-graph subdirectory — a clean miss.
  Graph other;
  other.AddNode("A");
  other.Finalize();
  store::ArtifactStore s2(dir_, store::Serde::GraphFingerprint(other));
  ViewCache warmed;
  const Status st = s2.WarmStarViews(other, &warmed);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kNotFound);
  EXPECT_EQ(warmed.size(), 0u);
}

}  // namespace
}  // namespace wqe
