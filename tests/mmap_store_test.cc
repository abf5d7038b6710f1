// Store v2 mmap bundle: zero-copy round trip plus the fault-injection sweep
// — truncation, bit flips, version skew, key mismatch, short files — every
// one must degrade to a non-OK Status (and to a rebuild via
// OpenOrBuildServingState), never to a crash or a silently wrong answer.

#include "store/mmap_layout.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "chase/eval.h"
#include "gen/product_demo.h"
#include "graph/adom.h"
#include "graph/distance_index.h"
#include "index_pins.h"
#include "store/artifact_store.h"
#include "store/serde.h"

namespace wqe {
namespace {

namespace fs = std::filesystem;

class MmapStoreFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/wqe_mmap_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  const Graph& graph() { return demo_.graph(); }
  uint64_t fp() { return store::Serde::GraphFingerprint(graph()); }
  store::ArtifactStore MakeStore() { return store::ArtifactStore(dir_, fp()); }

  /// Builds the heap-side indexes and writes the bundle; returns its path.
  std::string WriteBundleFile(store::ArtifactStore& store) {
    GraphIndexes idx(graph(), /*num_threads=*/1);
    EXPECT_TRUE(store
                    .SaveBundle(graph(), idx.adom, idx.diameter, idx.dist,
                                DistanceIndex::Options())
                    .ok());
    return store.BundlePath();
  }

  static Status OpenBundle(store::ArtifactStore& store,
                           std::unique_ptr<store::MappedBundle>* out,
                           store::BundleVerify verify =
                               store::BundleVerify::kFull) {
    store::BundleOpenOptions opts;
    opts.verify = verify;
    return store.OpenBundle(DistanceIndex::Options(), opts, out);
  }

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

  static void Truncate(const std::string& path, size_t keep) {
    std::error_code ec;
    fs::resize_file(path, keep, ec);
    ASSERT_FALSE(ec) << ec.message();
  }

  ProductDemo demo_;
  std::string dir_;
};

TEST_F(MmapStoreFixture, RoundTripAttachesIdenticalState) {
  store::ArtifactStore store = MakeStore();
  GraphIndexes heap(graph(), /*num_threads=*/1);
  ASSERT_TRUE(store
                  .SaveBundle(graph(), heap.adom, heap.diameter, heap.dist,
                              DistanceIndex::Options())
                  .ok());

  std::unique_ptr<store::MappedBundle> bundle;
  ASSERT_TRUE(OpenBundle(store, &bundle).ok());
  const Graph& mg = bundle->graph();
  EXPECT_TRUE(mg.attached());
  ASSERT_EQ(mg.num_nodes(), graph().num_nodes());
  ASSERT_EQ(mg.num_edges(), graph().num_edges());

  // The attached graph is observationally the same graph: the canonical
  // encoding (labels, names, attrs, edge list) is byte-identical, and the
  // fingerprint answers from the bundle header without re-encoding.
  EXPECT_EQ(store::Serde::EncodeGraph(mg), store::Serde::EncodeGraph(graph()));
  EXPECT_EQ(store::Serde::GraphFingerprint(mg), fp());
  for (NodeId v = 0; v < mg.num_nodes(); ++v) {
    EXPECT_EQ(mg.label(v), graph().label(v));
    EXPECT_EQ(mg.name(v), graph().name(v));
    ASSERT_EQ(mg.attrs(v).size(), graph().attrs(v).size());
    ASSERT_EQ(mg.out(v).size(), graph().out(v).size());
  }

  // Restored components match the heap build exactly.
  EXPECT_EQ(bundle->diameter(), heap.diameter);
  GraphIndexes mapped(bundle->TakeAdom(), bundle->diameter(),
                      bundle->TakeDist());
  EXPECT_EQ(mapped.dist.indexed(), heap.dist.indexed());
  EXPECT_EQ(mapped.dist.LabelEntries(), heap.dist.LabelEntries());
  EXPECT_EQ(store::Serde::EncodeAdom(mapped.adom),
            store::Serde::EncodeAdom(heap.adom));
  ExpectSameDistanceIndex(mapped.dist, heap.dist, mg.num_nodes());
}

TEST_F(MmapStoreFixture, MissingBundleIsNotFound) {
  store::ArtifactStore store = MakeStore();
  std::unique_ptr<store::MappedBundle> bundle;
  const Status s = OpenBundle(store, &bundle);
  EXPECT_EQ(s.code(), Status::Code::kNotFound) << s.ToString();
}

TEST_F(MmapStoreFixture, TruncationAtEveryRegionDegradesToStatus) {
  store::ArtifactStore store = MakeStore();
  const std::string path = WriteBundleFile(store);
  const size_t full = fs::file_size(path);

  // Below the header, inside the TOC/meta region, and inside the sections.
  for (const size_t keep :
       {size_t{0}, size_t{10}, store::kBundleHeaderBytes - 1,
        store::kBundleHeaderBytes + 17, full / 2, full - 1}) {
    ASSERT_LT(keep, full);
    WriteBundleFile(store);  // fresh intact copy
    Truncate(path, keep);
    std::unique_ptr<store::MappedBundle> bundle;
    const Status s = OpenBundle(store, &bundle);
    EXPECT_FALSE(s.ok()) << "keep=" << keep;
    EXPECT_NE(s.code(), Status::Code::kNotFound) << "keep=" << keep;
  }
}

TEST_F(MmapStoreFixture, PayloadBitFlipFailsChecksum) {
  store::ArtifactStore store = MakeStore();
  WriteBundleFile(store);
  // Last byte lands in the last section's payload (sections follow the
  // header/TOC/meta prefix); its per-section FNV-1a must catch the flip.
  FlipByte(store.BundlePath(), -1);
  std::unique_ptr<store::MappedBundle> bundle;
  const Status s = OpenBundle(store, &bundle);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("checksum"), std::string::npos) << s.ToString();
}

TEST_F(MmapStoreFixture, TocBitFlipFailsChecksum) {
  store::ArtifactStore store = MakeStore();
  WriteBundleFile(store);
  FlipByte(store.BundlePath(),
           static_cast<long>(store::kBundleHeaderBytes + 4));
  std::unique_ptr<store::MappedBundle> bundle;
  EXPECT_FALSE(OpenBundle(store, &bundle).ok());
}

TEST_F(MmapStoreFixture, VersionSkewIsRejected) {
  store::ArtifactStore store = MakeStore();
  WriteBundleFile(store);
  // Bytes 4..7 are the little-endian format version.
  FlipByte(store.BundlePath(), 4);
  std::unique_ptr<store::MappedBundle> bundle;
  const Status s = OpenBundle(store, &bundle);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("version"), std::string::npos) << s.ToString();
}

TEST_F(MmapStoreFixture, StaleKeyIsRejected) {
  store::ArtifactStore store = MakeStore();
  WriteBundleFile(store);
  // Same directory, different graph fingerprint: the bundle is stale.
  store::ArtifactStore other(dir_, fp() ^ 1);
  // Point the other store at the same file by copying it under its key dir.
  fs::create_directories(fs::path(other.BundlePath()).parent_path());
  fs::copy_file(store.BundlePath(), other.BundlePath());
  std::unique_ptr<store::MappedBundle> bundle;
  const Status s = OpenBundle(other, &bundle);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << s.ToString();
}

TEST_F(MmapStoreFixture, HeaderOnlyVerifySkipsPayloadChecksums) {
  store::ArtifactStore store = MakeStore();
  WriteBundleFile(store);
  FlipByte(store.BundlePath(), -1);  // payload corruption
  std::unique_ptr<store::MappedBundle> full;
  EXPECT_FALSE(OpenBundle(store, &full).ok());
  // The trusted-local escape hatch maps without paying the linear scan; it
  // still validates the header, TOC checksum, and section geometry.
  std::unique_ptr<store::MappedBundle> fast;
  EXPECT_TRUE(
      OpenBundle(store, &fast, store::BundleVerify::kHeaderOnly).ok());
}

TEST_F(MmapStoreFixture, CorruptionFallsBackToRebuild) {
  store::ArtifactStore store = MakeStore();
  WriteBundleFile(store);
  Truncate(store.BundlePath(), 33);  // short mmap: below the header

  // The --cache-dir entry point: rejected bundle -> heap build -> rewrite ->
  // zero-copy reopen, all behind one call.
  std::unique_ptr<MappedServingState> state;
  ASSERT_TRUE(
      OpenOrBuildServingState(graph(), store, /*num_threads=*/1, &state).ok());
  EXPECT_TRUE(state->graph().attached());
  EXPECT_EQ(state->graph().num_nodes(), graph().num_nodes());
  EXPECT_GT(fs::file_size(store.BundlePath()), store::kBundleHeaderBytes);

  // And the rewritten bundle now opens clean directly.
  std::unique_ptr<store::MappedBundle> bundle;
  EXPECT_TRUE(OpenBundle(store, &bundle).ok());
}

}  // namespace
}  // namespace wqe
