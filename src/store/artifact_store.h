#ifndef WQE_STORE_ARTIFACT_STORE_H_
#define WQE_STORE_ARTIFACT_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "graph/distance_index.h"
#include "store/format.h"
#include "store/mmap_layout.h"

namespace wqe {

class ActiveDomains;
class Graph;
class ViewCache;

namespace obs {
class Counter;
class Histogram;
struct Observability;
}  // namespace obs

namespace store {

/// Reads a whole file into `out`. NotFound when the file does not exist (the
/// cache-miss case callers treat as "build it").
Status ReadFileBytes(const std::string& path, std::string* out);

/// Writes `bytes` to `path` atomically: a unique temp file in the same
/// directory, then rename. A crashed or concurrent writer can never leave a
/// half-written artifact under the final name.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

/// Parameter hash for the bundle's distance index: an index built with
/// different PLL settings is a different artifact. num_threads is
/// deliberately absent — the parallel build is byte-identical to the serial
/// one.
uint64_t DistanceIndexParams(const DistanceIndex::Options& opts);

/// Persistent store for one graph's serving state: the mmap bundle (graph
/// columns, active domains, diameter, PLL distance index) and materialized
/// star views, laid out as `<dir>/fp-<fingerprint>/<kind>.wqes`. The bundle
/// carries its own header (mmap_layout.h), the star views the container
/// header of format.h, so a mutated graph, corrupted file, or format-version
/// bump is detected on load and reported as a non-OK Status — callers
/// rebuild and overwrite. All operations are best-effort: IO failure never
/// aborts a computation that could run cold.
class ArtifactStore {
 public:
  /// `graph_fingerprint` keys every artifact (Serde::GraphFingerprint of the
  /// graph, or any caller-chosen stable hash). `obs` may be null; metrics are
  /// store.{hits,misses,rejected,saves} and store.{load_ns,save_ns}.
  ArtifactStore(std::string dir, uint64_t graph_fingerprint,
                obs::Observability* obs = nullptr);

  void set_observability(obs::Observability* obs);

  const std::string& dir() const { return dir_; }
  uint64_t graph_fingerprint() const { return key_; }

  // -------- Star views --------
  /// Persists the cache's tables (sorted by signature, so equal caches write
  /// identical files), merged with tables already on disk that the cache no
  /// longer holds — an entry evicted this run survives on disk. The merged
  /// file is capped at `max_persisted_entries` table entries, current cache
  /// contents first.
  Status SaveStarViews(const ViewCache& cache, size_t max_persisted_entries);
  /// Loads every persisted star table into `cache`.
  Status WarmStarViews(const Graph& g, ViewCache* cache);

  // -------- Store v2 mmap bundle --------
  /// Writes `bundle.wqes` carrying the whole serving state (graph columns +
  /// adom + diameter + distance index) for zero-copy reopen. Keyed by
  /// DistanceIndexParams: different PLL settings are a different bundle.
  Status SaveBundle(const Graph& g, const ActiveDomains& adom,
                    uint32_t diameter, const DistanceIndex& d,
                    const DistanceIndex::Options& opts);
  /// Maps and attaches the bundle. NotFound = miss (build heap-side, then
  /// SaveBundle); validation failures count as rejected and the caller
  /// rebuilds. The returned bundle pins the mapping.
  Status OpenBundle(const DistanceIndex::Options& opts,
                    const BundleOpenOptions& open_opts,
                    std::unique_ptr<MappedBundle>* out);
  std::string BundlePath() const {
    return ArtifactPath(ArtifactKind::kMmapBundle);
  }

  /// Path of `kind`'s artifact file inside this store (tests poke these
  /// files to inject corruption).
  std::string ArtifactPath(ArtifactKind kind) const;

 private:
  Status Save(ArtifactKind kind, uint64_t params, std::string payload);
  /// Loads and verifies one artifact; on success `*payload` points into
  /// `*bytes`. NotFound = cache miss; anything else counts as rejected and
  /// logs a rebuild warning.
  Status Load(ArtifactKind kind, uint64_t params, std::string* bytes,
              std::string_view* payload);
  /// Decode-stage failure after a verified container: treat like corruption.
  Status Reject(ArtifactKind kind, const Status& why);

  std::string dir_;
  uint64_t key_;

  obs::Counter* c_hits_ = nullptr;
  obs::Counter* c_misses_ = nullptr;
  obs::Counter* c_rejected_ = nullptr;
  obs::Counter* c_saves_ = nullptr;
  obs::Histogram* h_load_ns_ = nullptr;
  obs::Histogram* h_save_ns_ = nullptr;
};

}  // namespace store
}  // namespace wqe

#endif  // WQE_STORE_ARTIFACT_STORE_H_
