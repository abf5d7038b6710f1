#ifndef WQE_MATCH_VIEW_CACHE_H_
#define WQE_MATCH_VIEW_CACHE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "match/star_table.h"

namespace wqe {

namespace obs {
class Counter;
class Gauge;
struct Observability;
}  // namespace obs

/// Global cache 𝒱 of materialized star views (§5.2 "Caching the Stars").
/// Q-Chase produces highly similar queries; rewrites that leave a star
/// untouched re-use its table instead of re-evaluating. Replacement follows
/// the paper: a per-view hit counter incremented on use and decayed by a
/// time factor, with least-hit eviction when over capacity.
///
/// Thread-safe: all operations serialize through an internal mutex, so one
/// cache can back concurrent requests (the serving layer shares a single
/// warm cache across every in-flight solve). Tables are immutable once
/// inserted and handed out by shared_ptr, so a table stays valid after its
/// entry is evicted under a reader's feet.
class ViewCache {
 public:
  struct Options {
    /// Capacity in table entries (Σ EntryCount), not table count, so one
    /// huge wildcard star cannot masquerade as a single small unit.
    size_t max_entries = 4u << 20;
    /// Multiplicative decay applied per tick since last use.
    double decay = 0.95;
  };

  ViewCache() : ViewCache(Options()) {}
  explicit ViewCache(Options options) : options_(options) {}

  /// Looks up a table by signature; bumps its (decayed) hit score.
  std::shared_ptr<const StarTable> Get(const std::string& signature);

  /// Looks up a table without touching scores or hit/miss accounting — the
  /// probe of StarMatcher::ResolveTables when it would not build a missing
  /// table, so an absent entry is not a miss and a present one earned no
  /// retention credit.
  std::shared_ptr<const StarTable> Peek(const std::string& signature) const;

  /// Inserts a table, evicting least-hit entries if over capacity. A table
  /// larger than the whole budget is still admitted (it may be the only view
  /// the current question needs), but entries that do fit are never evicted
  /// on its account.
  void Put(const std::string& signature, std::shared_ptr<const StarTable> table);

  /// Resets contents *and* the decay clock (a cleared cache starts a fresh
  /// epoch; stale ticks must not age its future entries).
  void Clear();

  /// Visits every cached (signature, table) pair in unspecified order
  /// (persistence snapshots sort by signature themselves).
  void ForEach(const std::function<void(const std::string&,
                                        const std::shared_ptr<const StarTable>&)>&
                   fn) const;

  /// Mirrors hit/miss/eviction counts and occupancy into `o`'s registry
  /// (counters resolved once here, then bumped lock-free). Null detaches.
  void set_observability(obs::Observability* o);

  const Options& options() const { return options_; }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }
  size_t entry_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_entries_;
  }
  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }

 private:
  struct Entry {
    std::shared_ptr<const StarTable> table;
    double score = 0;
    uint64_t last_tick = 0;
  };

  double DecayedScore(const Entry& e) const;
  void EvictIfNeeded();  // caller holds mu_

  mutable std::mutex mu_;
  Options options_;
  std::unordered_map<std::string, Entry> entries_;
  size_t total_entries_ = 0;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;

  obs::Counter* c_hits_ = nullptr;
  obs::Counter* c_misses_ = nullptr;
  obs::Counter* c_evictions_ = nullptr;
  obs::Gauge* g_entries_ = nullptr;
};

}  // namespace wqe

#endif  // WQE_MATCH_VIEW_CACHE_H_
