// Seeded hostile-input test for the mmap bundle, the only persisted serving
// state: byte flips, truncations and extreme u64 overwrites aimed at the
// header, TOC and meta block of a small bundle. Every mutated file must be
// refused with a non-OK Status, or open at full verification into a serving
// state whose answers equal the heap reference. The sanitizer builds run
// this like every other test, which is where a missing bounds check shows.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "chase/eval.h"
#include "chase/solve.h"
#include "gen/product_demo.h"
#include "store/artifact_store.h"
#include "store/format.h"
#include "store/mmap_layout.h"
#include "store/serde.h"

namespace wqe {
namespace {

namespace fs = std::filesystem;

// Byte offsets of the header's u64 fields (after six u32 fields), in the
// order WriteBundle emits them.
constexpr size_t kHeaderU64s = 24;
constexpr size_t kTocBytesField = kHeaderU64s + 5 * 8;
constexpr size_t kMetaSizeField = kHeaderU64s + 6 * 8;
constexpr size_t kTocCheckField = kHeaderU64s + 7 * 8;

constexpr int kMutations = 400;

uint64_t ReadU64(const std::string& bytes, size_t at) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

void WriteU64(std::string& bytes, size_t at, uint64_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof(v));
}

class BundleMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/wqe_bundle_mutation_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    const Graph& g = demo_.graph();
    store_ = std::make_unique<store::ArtifactStore>(
        dir_, store::Serde::GraphFingerprint(g));
    GraphIndexes heap(g, /*num_threads=*/1);
    ASSERT_TRUE(store_
                    ->SaveBundle(g, heap.adom, heap.diameter, heap.dist,
                                 DistanceIndex::Options())
                    .ok());
    ASSERT_TRUE(store::ReadFileBytes(store_->BundlePath(), &pristine_).ok());
    toc_begin_ = store::kBundleHeaderBytes;
    meta_begin_ = toc_begin_ + ReadU64(pristine_, kTocBytesField);
    prefix_end_ = meta_begin_ + ReadU64(pristine_, kMetaSizeField);
    ASSERT_LT(prefix_end_, pristine_.size());
    reference_ = Answers(g, &heap);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// AnsW and AnsHeu on the demo question: every answer's rewrite, matches
  /// and closeness (hex float, so equality is bit-exact).
  std::string Answers(const Graph& g, GraphIndexes* indexes) {
    std::string out;
    for (const Algorithm algo : {Algorithm::kAnsW, Algorithm::kAnsHeu}) {
      Request req;
      req.question = demo_.Question();
      req.options.max_steps = 200;
      req.algorithm = algo;
      const Response resp = Execute(g, indexes, nullptr, nullptr, req);
      out += resp.status.ToString() + "\n";
      for (const WhyAnswer& a : resp.result.answers) {
        char cl[32];
        std::snprintf(cl, sizeof(cl), "%a", a.closeness);
        out += a.rewrite.Fingerprint() + " cl=" + cl + " m=";
        for (NodeId v : a.matches) out += std::to_string(v) + ",";
        out += "\n";
      }
    }
    return out;
  }

  /// A mutated copy of the pristine bundle, drawn from `rng`: a byte flip or
  /// an extreme u64 overwrite inside header + TOC + meta, or a truncation
  /// anywhere. `touched` receives the first mutated offset (the new size for
  /// a truncation).
  std::string Mutate(std::mt19937_64& rng, size_t* touched) {
    std::string bytes = pristine_;
    auto pick = [&](size_t lo, size_t hi) {  // uniform in [lo, hi)
      return std::uniform_int_distribution<size_t>(lo, hi - 1)(rng);
    };
    switch (pick(0, 3)) {
      case 0: {  // byte flip
        const size_t at = pick(0, prefix_end_);
        bytes[at] = static_cast<char>(bytes[at] ^ pick(1, 256));
        *touched = at;
        break;
      }
      case 1: {  // truncation, half of them inside the prefix
        const size_t keep = pick(0, 2) == 0 ? pick(0, prefix_end_)
                                            : pick(prefix_end_, bytes.size());
        bytes.resize(keep);
        *touched = keep;
        break;
      }
      default: {  // extreme u64, on a header/TOC field or anywhere
        size_t at;
        if (pick(0, 2) == 0) {
          const size_t entries = (meta_begin_ - toc_begin_) /
                                 store::kTocEntryBytes;
          const size_t field = pick(0, 8 + 4 * entries);
          at = field < 8 ? kHeaderU64s + 8 * field
                         : toc_begin_ +
                               store::kTocEntryBytes * ((field - 8) / 4) +
                               8 * (1 + (field - 8) % 4);
        } else {
          at = pick(0, prefix_end_ - 7);
        }
        const uint64_t extremes[] = {0,
                                     1,
                                     0xffffffffull,
                                     0x100000000ull,
                                     0x7fffffffffffffffull,
                                     0x8000000000000000ull,
                                     ~0ull - 1,
                                     ~0ull,
                                     bytes.size(),
                                     bytes.size() + 1,
                                     prefix_end_};
        WriteU64(bytes, at, extremes[pick(0, std::size(extremes))]);
        *touched = at;
        break;
      }
    }
    return bytes;
  }

  /// Recomputes the header's TOC checksum over the (mutated) TOC and meta
  /// regions the header describes, so the mutation gets past the checksum
  /// into the structural checks. False when the header no longer describes
  /// regions inside the file.
  static bool Reseal(std::string& bytes) {
    if (bytes.size() < store::kBundleHeaderBytes) return false;
    const uint64_t toc = ReadU64(bytes, kTocBytesField);
    const uint64_t meta = ReadU64(bytes, kMetaSizeField);
    const uint64_t room = bytes.size() - store::kBundleHeaderBytes;
    if (toc > room || meta > room - toc) return false;
    const std::string_view toc_region(bytes.data() + store::kBundleHeaderBytes,
                                      toc);
    const std::string_view meta_region(toc_region.data() + toc, meta);
    WriteU64(bytes, kTocCheckField,
             store::Fnv1a(meta_region, store::Fnv1a(toc_region)));
    return true;
  }

  /// Installs `bytes` as the bundle and opens it at full verification.
  Status Open(const std::string& bytes,
              std::unique_ptr<MappedServingState>* state) {
    EXPECT_TRUE(store::WriteFileAtomic(store_->BundlePath(), bytes).ok());
    return OpenServingState(*store_, DistanceIndex::Options(), {}, state);
  }

  ProductDemo demo_;
  std::string dir_;
  std::unique_ptr<store::ArtifactStore> store_;
  std::string pristine_;
  size_t toc_begin_ = 0, meta_begin_ = 0, prefix_end_ = 0;
  std::string reference_;
};

TEST_F(BundleMutationTest, RawMutationsAreRefusedOrAnswerLikeTheHeap) {
  std::unique_ptr<MappedServingState> state;
  ASSERT_TRUE(Open(pristine_, &state).ok());
  EXPECT_EQ(Answers(state->graph(), &state->indexes), reference_);
  state.reset();

  std::mt19937_64 rng(20190630);
  int refused = 0;
  for (int i = 0; i < kMutations; ++i) {
    size_t touched = 0;
    const std::string bytes = Mutate(rng, &touched);
    const Status s = Open(bytes, &state);
    if (!s.ok()) {
      ++refused;
      continue;
    }
    EXPECT_EQ(Answers(state->graph(), &state->indexes), reference_)
        << "mutation " << i << " at byte " << touched;
    state.reset();
  }
  // The checksums catch nearly everything; the few survivors are fields the
  // reader does not need (e.g. the reserved flags word).
  EXPECT_GT(refused, kMutations * 3 / 4);
}

TEST_F(BundleMutationTest, WrappingRegionSizeIsOutOfRange) {
  // header + TOC + meta_size wraps to 1 byte: the size check must not wrap
  // with it and wave the regions through to the checksum.
  std::string bytes = pristine_;
  WriteU64(bytes, kMetaSizeField, ~uint64_t{0} - meta_begin_ + 2);
  std::unique_ptr<MappedServingState> state;
  const Status s = Open(bytes, &state);
  EXPECT_EQ(s.code(), Status::Code::kOutOfRange) << s.ToString();
}

TEST_F(BundleMutationTest, ResealedMutationsAreRefusedOrServeSafely) {
  std::mt19937_64 rng(20190701);
  int resealed = 0, refused = 0;
  for (int i = 0; i < kMutations; ++i) {
    size_t touched = 0;
    std::string bytes = Mutate(rng, &touched);
    if (!Reseal(bytes)) continue;
    ++resealed;
    std::unique_ptr<MappedServingState> state;
    const Status s = Open(bytes, &state);
    if (!s.ok()) {
      ++refused;
      continue;
    }
    // Past the checksum, a changed meta block is a different but valid
    // bundle (another diameter or active domain changes operator costs), so
    // only its safety is checked: solving on it must not fault. Anything
    // the reader accepted outside the meta block must not change answers.
    const std::string answers = Answers(state->graph(), &state->indexes);
    const bool in_meta = touched >= meta_begin_ && touched < prefix_end_;
    if (!in_meta) {
      EXPECT_EQ(answers, reference_)
          << "mutation " << i << " at byte " << touched;
    }
  }
  EXPECT_GT(resealed, kMutations / 2);
  EXPECT_GT(refused, 0);
}

}  // namespace
}  // namespace wqe
