// cold_start: time-to-serving-state for a graph already in memory — the
// heap build of its indexes (active domains, diameter, PLL distance index)
// against attaching the store's mmap bundle (DESIGN.md "Persistence"). The
// arrange phase writes the bundle once, so the measurement isolates what a
// serving process pays at start: a run without a store builds, a run with
// one pays a checksum scan and pointer fixup over the mapped columns.
//
// The gated invariant is the bundle's promise: the zero-copy attach is at
// least an order of magnitude faster than the heap build at full
// verification, and answers computed on the mapped state are byte-identical
// to the heap reference — including under multi-threaded evaluation.

#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "chase/eval.h"
#include "chase/solve.h"
#include "store/artifact_store.h"
#include "store/mmap_layout.h"
#include "store/serde.h"

using namespace wqe;
using namespace wqe::bench;

namespace {

namespace fs = std::filesystem;

/// Min over repeats: reproducible within a few percent on a throttled box
/// (same rationale as the gate's min_wall_s).
double MinSeconds(size_t reps, const std::function<void()>& body) {
  double best = -1;
  for (size_t i = 0; i < reps; ++i) {
    Timer t;
    body();
    const double s = t.ElapsedSeconds();
    if (best < 0 || s < best) best = s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env(argc, argv);
  Header("cold_start", "heap index build vs mmap bundle attach");

  // The largest dataset preset (ImdbLike ~17k nodes at scale 1).
  Graph g = GenerateGraph(ImdbLike(env.scale));
  const uint64_t fp = store::Serde::GraphFingerprint(g);

  const bool own_dir = env.cache_dir.empty();
  const std::string dir =
      own_dir ? (fs::temp_directory_path() / "wqe_cold_start_bench").string()
              : env.cache_dir;
  if (own_dir) fs::remove_all(dir);

  store::ArtifactStore store(dir, fp, &BenchObs());

  // Arrange (untimed): one heap build, persisted as the bundle.
  GraphIndexes built(g, env.threads);
  bool ok = store
                .SaveBundle(g, built.adom, built.diameter, built.dist,
                            DistanceIndex::Options())
                .ok();
  if (!ok) {
    Shape(false, "failed to persist the cold-start bundle");
    return env.Finish();
  }

  constexpr size_t kReps = 5;

  // Heap cold start: build the indexes from the in-memory graph, serially.
  const double heap_s = MinSeconds(kReps, [&] {
    GraphIndexes idx(g, /*num_threads=*/1);
    if (idx.diameter != built.diameter) ok = false;
  });

  // Bundle cold start at full verification (the default open), and at the
  // header-only trust level for the trusted-local comparison point.
  const store::BundleOpenOptions full_verify;
  store::BundleOpenOptions header_only;
  header_only.verify = store::BundleVerify::kHeaderOnly;
  auto time_open = [&](const store::BundleOpenOptions& opts) {
    return MinSeconds(kReps, [&] {
      std::unique_ptr<MappedServingState> st;
      if (!OpenServingState(store, DistanceIndex::Options(), opts, &st).ok()) {
        ok = false;
      }
    });
  };
  const double mmap_s = time_open(full_verify);
  const double mmap_hdr_s = time_open(header_only);

  std::printf("cold_start,heap,build,nodes=%zu,seconds=%.5f\n",
              static_cast<size_t>(g.num_nodes()), heap_s);
  std::printf("cold_start,mmap,full_verify,seconds=%.5f,speedup=%.1fx\n",
              mmap_s, mmap_s > 0 ? heap_s / mmap_s : 0.0);
  std::printf("cold_start,mmap,header_only,seconds=%.5f,speedup=%.1fx\n",
              mmap_hdr_s, mmap_hdr_s > 0 ? heap_s / mmap_hdr_s : 0.0);

  // Parity: the same workload answered on the heap state and on the mapped
  // state (serial and multi-threaded) must produce byte-identical rewrites.
  std::unique_ptr<MappedServingState> mapped;
  if (!OpenServingState(store, DistanceIndex::Options(), full_verify, &mapped)
           .ok()) {
    Shape(false, "bundle written by this run failed to reopen");
    return env.Finish();
  }
  const std::vector<BenchCase> cases =
      MakeBenchCases(g, env.queries, DefaultFactory(env.seed));
  auto answers = [&](const Graph& rg, GraphIndexes* idx, size_t threads) {
    std::vector<std::string> out;
    out.reserve(cases.size());
    for (const BenchCase& c : cases) {
      Request req;
      req.question = c.question;
      req.options = DefaultChase();
      req.options.num_threads = threads;
      const Response r = Execute(rg, idx, nullptr, nullptr, req);
      out.push_back(r.found() ? r.best().rewrite.Fingerprint()
                              : std::string());
    }
    return out;
  };
  const std::vector<std::string> reference = answers(g, &built, 1);
  const bool identical = reference == answers(mapped->graph(),
                                              &mapped->indexes, 1) &&
                         reference == answers(mapped->graph(),
                                              &mapped->indexes, 4);
  std::printf("cold_start,parity,answers,cases=%zu,identical=%d\n",
              cases.size(), identical ? 1 : 0);

  const double speedup = mmap_s > 0 ? heap_s / mmap_s : 0.0;
  char verdict[160];
  std::snprintf(verdict, sizeof(verdict),
                "mmap attach %.1fx faster than heap build (>= 10x gated) "
                "with byte-identical answers at 1 and 4 threads",
                speedup);
  Shape(ok && identical && speedup >= 10.0, verdict);

  mapped.reset();
  if (own_dir) fs::remove_all(dir);
  return env.Finish();
}
