#include "store/artifact_store.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "match/view_cache.h"
#include "obs/observability.h"
#include "store/serde.h"

namespace wqe::store {

namespace {

namespace fs = std::filesystem;

/// Bumped when an artifact's *builder* changes incompatibly without the
/// container format itself changing (e.g. a new diameter heuristic).
constexpr uint64_t kBuilderRev = 1;

/// The star-views file's own builder revision. Rev 2 stores each table as
/// its role occurrence sets only (rev 1 also held per-center rows); rev 3
/// drops the focus set of a focus-centered or focus-spoke star, which is
/// the center or spoke set. An older file fails the params check and is
/// rebuilt, while bundle.wqes, keyed by kBuilderRev, stays valid.
constexpr uint64_t kStarViewsRev = 3;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string HexKey(uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

void WarnRebuild(ArtifactKind kind, const Status& why) {
  std::fprintf(stderr, "wqe: store: %s artifact unusable (%s); rebuilding\n",
               ArtifactKindName(kind), why.ToString().c_str());
}

}  // namespace

Status ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("no such file: " + path);
  }
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) {
    return Status::InvalidArgument("cannot stat file: " + path);
  }
  in.seekg(0, std::ios::beg);
  out->resize(static_cast<size_t>(size));
  in.read(out->data(), size);
  if (!in) {
    return Status::InvalidArgument("short read on file: " + path);
  }
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  std::error_code ec;
  const fs::path target(path);
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path(), ec);
    if (ec) {
      return Status::InvalidArgument("cannot create cache directory " +
                                     target.parent_path().string() + ": " +
                                     ec.message());
    }
  }
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::InvalidArgument("cannot open for writing: " + tmp);
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      std::error_code rm;
      fs::remove(tmp, rm);
      return Status::InvalidArgument("short write on: " + tmp);
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code rm;
    fs::remove(tmp, rm);
    return Status::InvalidArgument("cannot rename " + tmp + " -> " + path +
                                   ": " + ec.message());
  }
  return Status::OK();
}

uint64_t DistanceIndexParams(const DistanceIndex::Options& opts) {
  return HashU64s({opts.use_pll ? 1ull : 0ull,
                   static_cast<uint64_t>(opts.pll_max_nodes), kBuilderRev});
}

ArtifactStore::ArtifactStore(std::string dir, uint64_t graph_fingerprint,
                             obs::Observability* obs)
    : dir_(std::move(dir)), key_(graph_fingerprint) {
  set_observability(obs);
}

void ArtifactStore::set_observability(obs::Observability* obs) {
  if (obs == nullptr) {
    c_hits_ = c_misses_ = c_rejected_ = c_saves_ = nullptr;
    h_load_ns_ = h_save_ns_ = nullptr;
    return;
  }
  c_hits_ = &obs->metrics.counter("store.hits");
  c_misses_ = &obs->metrics.counter("store.misses");
  c_rejected_ = &obs->metrics.counter("store.rejected");
  c_saves_ = &obs->metrics.counter("store.saves");
  h_load_ns_ = &obs->metrics.histogram("store.load_ns");
  h_save_ns_ = &obs->metrics.histogram("store.save_ns");
}

std::string ArtifactStore::ArtifactPath(ArtifactKind kind) const {
  return (fs::path(dir_) / ("fp-" + HexKey(key_)) /
          (std::string(ArtifactKindName(kind)) + ".wqes"))
      .string();
}

Status ArtifactStore::Save(ArtifactKind kind, uint64_t params,
                           std::string payload) {
  const uint64_t t0 = NowNs();
  Status s = WriteFileAtomic(ArtifactPath(kind),
                             SealFile(kind, key_, params, std::move(payload)));
  if (s.ok()) {
    if (c_saves_ != nullptr) c_saves_->Inc();
    if (h_save_ns_ != nullptr) h_save_ns_->Observe(NowNs() - t0);
  } else {
    std::fprintf(stderr, "wqe: store: cannot persist %s artifact (%s)\n",
                 ArtifactKindName(kind), s.ToString().c_str());
  }
  return s;
}

Status ArtifactStore::Load(ArtifactKind kind, uint64_t params,
                           std::string* bytes, std::string_view* payload) {
  Status s = ReadFileBytes(ArtifactPath(kind), bytes);
  if (!s.ok()) {
    if (s.code() == Status::Code::kNotFound) {
      if (c_misses_ != nullptr) c_misses_->Inc();
      return s;
    }
    return Reject(kind, s);
  }
  s = OpenFile(*bytes, kind, key_, params, payload);
  if (!s.ok()) return Reject(kind, s);
  return s;
}

Status ArtifactStore::Reject(ArtifactKind kind, const Status& why) {
  if (c_rejected_ != nullptr) c_rejected_->Inc();
  WarnRebuild(kind, why);
  // A rejected artifact is semantically a miss: the caller rebuilds.
  return why.ok() ? Status::InvalidArgument("artifact rejected") : why;
}

// -------- Store v2 mmap bundle --------

Status ArtifactStore::SaveBundle(const Graph& g, const ActiveDomains& adom,
                                 uint32_t diameter, const DistanceIndex& d,
                                 const DistanceIndex::Options& opts) {
  const uint64_t t0 = NowNs();
  Status s = WriteBundle(BundlePath(), g, adom, diameter, d, key_,
                         DistanceIndexParams(opts));
  if (s.ok()) {
    if (c_saves_ != nullptr) c_saves_->Inc();
    if (h_save_ns_ != nullptr) h_save_ns_->Observe(NowNs() - t0);
  } else {
    std::fprintf(stderr, "wqe: store: cannot persist bundle artifact (%s)\n",
                 s.ToString().c_str());
  }
  return s;
}

Status ArtifactStore::OpenBundle(const DistanceIndex::Options& opts,
                                 const BundleOpenOptions& open_opts,
                                 std::unique_ptr<MappedBundle>* out) {
  const uint64_t t0 = NowNs();
  Status s = MappedBundle::Open(BundlePath(), key_, DistanceIndexParams(opts),
                                open_opts, out);
  if (!s.ok()) {
    if (s.code() == Status::Code::kNotFound) {
      if (c_misses_ != nullptr) c_misses_->Inc();
      return s;
    }
    return Reject(ArtifactKind::kMmapBundle, s);
  }
  if (c_hits_ != nullptr) c_hits_->Inc();
  if (h_load_ns_ != nullptr) h_load_ns_->Observe(NowNs() - t0);
  return Status::OK();
}

// -------- Star views --------

namespace {

/// Envelope of one persisted star view: signature, entry-count (for the
/// persistence cap — readable without decoding the table), table payload.
void EncodeViewEntry(Writer& w, const std::string& signature,
                     uint64_t entry_count, std::string_view table_bytes) {
  w.Str(signature);
  w.U64(entry_count);
  w.Str(std::string(table_bytes));
}

}  // namespace

Status ArtifactStore::SaveStarViews(const ViewCache& cache,
                                    size_t max_persisted_entries) {
  // Current cache contents, deterministically ordered.
  std::vector<std::pair<std::string, std::shared_ptr<const StarTable>>> live;
  cache.ForEach([&](const std::string& sig,
                    const std::shared_ptr<const StarTable>& table) {
    live.emplace_back(sig, table);
  });
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Tables already on disk but no longer cached (evicted this run, or cached
  // by an earlier run) are retained, budget permitting. An unreadable old
  // file is simply not merged — it is about to be overwritten anyway, so no
  // miss/reject is recorded here.
  std::map<std::string, std::pair<uint64_t, std::string>> disk_only;
  {
    std::string bytes;
    std::string_view payload;
    if (ReadFileBytes(ArtifactPath(ArtifactKind::kStarViews), &bytes).ok() &&
        OpenFile(bytes, ArtifactKind::kStarViews, key_, kStarViewsRev, &payload)
            .ok()) {
      Reader r(payload);
      uint64_t count = 0;
      if (r.U64(&count).ok() && r.CheckCount(count, 24, "star views").ok()) {
        for (uint64_t i = 0; i < count; ++i) {
          std::string sig;
          uint64_t entries = 0;
          std::string table_bytes;
          if (!r.Str(&sig).ok() || !r.U64(&entries).ok() ||
              !r.Str(&table_bytes).ok()) {
            break;
          }
          disk_only.emplace(std::move(sig),
                            std::make_pair(entries, std::move(table_bytes)));
        }
      }
    }
  }
  for (const auto& [sig, table] : live) disk_only.erase(sig);

  Writer body;
  uint64_t written = 0;
  size_t budget = max_persisted_entries;
  Writer head;
  for (const auto& [sig, table] : live) {
    const size_t entries = table->EntryCount();
    if (written > 0 && entries > budget) continue;  // always keep >= 1 table
    Writer tw;
    Serde::EncodeStarTable(*table, tw);
    EncodeViewEntry(body, sig, entries, tw.bytes());
    budget -= std::min(budget, entries);
    ++written;
  }
  for (const auto& [sig, entry] : disk_only) {
    const auto& [entries, table_bytes] = entry;
    if (entries > budget) continue;
    EncodeViewEntry(body, sig, entries, table_bytes);
    budget -= std::min(budget, static_cast<size_t>(entries));
    ++written;
  }
  if (written == 0) return Status::OK();  // nothing to persist

  head.U64(written);
  std::string payload = head.Take();
  payload += body.bytes();
  return Save(ArtifactKind::kStarViews, kStarViewsRev, std::move(payload));
}

Status ArtifactStore::WarmStarViews(const Graph& g, ViewCache* cache) {
  const uint64_t t0 = NowNs();
  std::string bytes;
  std::string_view payload;
  if (Status s = Load(ArtifactKind::kStarViews, kStarViewsRev, &bytes, &payload);
      !s.ok()) {
    return s;
  }
  Reader r(payload);
  uint64_t count = 0;
  if (Status s = r.U64(&count); !s.ok()) {
    return Reject(ArtifactKind::kStarViews, s);
  }
  if (Status s = r.CheckCount(count, 24, "star views"); !s.ok()) {
    return Reject(ArtifactKind::kStarViews, s);
  }
  std::vector<std::pair<std::string, std::shared_ptr<const StarTable>>> loaded;
  loaded.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string sig;
    uint64_t entries = 0;
    std::string table_bytes;
    if (Status s = r.Str(&sig); !s.ok()) {
      return Reject(ArtifactKind::kStarViews, s);
    }
    if (Status s = r.U64(&entries); !s.ok()) {
      return Reject(ArtifactKind::kStarViews, s);
    }
    if (Status s = r.Str(&table_bytes); !s.ok()) {
      return Reject(ArtifactKind::kStarViews, s);
    }
    Reader tr(table_bytes);
    std::shared_ptr<const StarTable> table;
    if (Status s = Serde::DecodeStarTable(tr, g.num_nodes(), &table); !s.ok()) {
      return Reject(ArtifactKind::kStarViews, s);
    }
    if (!tr.AtEnd()) {
      return Reject(ArtifactKind::kStarViews,
                    Status::InvalidArgument(
                        "corrupt artifact payload: trailing star-table bytes"));
    }
    loaded.emplace_back(std::move(sig), std::move(table));
  }
  // Insert only after the whole file decoded cleanly, so a corrupt tail
  // cannot leave the cache half-warmed.
  for (auto& [sig, table] : loaded) cache->Put(sig, std::move(table));
  if (c_hits_ != nullptr) c_hits_->Inc();
  if (h_load_ns_ != nullptr) h_load_ns_->Observe(NowNs() - t0);
  return Status::OK();
}

}  // namespace wqe::store
