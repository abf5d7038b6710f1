#ifndef WQE_OBS_METRICS_H_
#define WQE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace wqe::obs {

/// Shard count for the per-thread counter/histogram slots. Threads hash to a
/// fixed shard on first use; 16 cacheline-padded slots keep the fully-loaded
/// thread pool contention-free without per-registration TLS bookkeeping.
inline constexpr size_t kMetricShards = 16;

/// The shard this thread writes to (stable for the thread's lifetime).
size_t MetricShardOfThisThread();

/// Monotonic event counter. Incrementing touches only the calling thread's
/// shard (one relaxed fetch_add on a private cache line); reads aggregate all
/// shards, so `Value()` is exact once the producing threads have joined —
/// which the deterministic parallel layer (ParallelFor barriers) guarantees.
class Counter {
 public:
  void Inc(uint64_t n = 1) {
    shards_[MetricShardOfThisThread()].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

/// Last-writer-wins instantaneous value (index sizes, cache occupancy).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log-scale (power-of-two bucket) histogram for latency-like quantities.
/// `Observe(v)` drops `v` into bucket ⌊log2 v⌋ of the calling thread's shard;
/// snapshots aggregate shards and answer approximate quantiles (see
/// Snapshot::Quantile for the error bound) — the right trade for per-phase
/// latency breakdowns. Values are plain uint64 so callers pick the unit (we use
/// nanoseconds).
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Observe(uint64_t value);

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    std::array<uint64_t, kBuckets> buckets{};

    double Mean() const {
      return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
    }
    /// Approximate q-quantile (q in [0, 1]) by linear interpolation across
    /// the bucket holding the rank: each of the bucket's n samples owns a
    /// 1/n slice and the rank answers with its slice's midpoint, so a
    /// well-populated bucket converges toward the true percentile and even a
    /// degenerate one (all mass at an edge) is off by at most ~50%.
    uint64_t Quantile(double q) const;

    /// Element-wise accumulation — merges another snapshot's mass into this
    /// one (sliding-window reads, cross-registry rollups).
    void Merge(const Snapshot& other);
  };

  Snapshot Snap() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

/// Monotonic clock reading in nanoseconds (the time base SlidingHistogram
/// epochs are computed from; exposed so tests can feed synthetic timestamps
/// through the *At entry points against the same scale).
uint64_t MonotonicNowNs();

/// Sliding-window histogram: a ring of per-epoch Histograms so quantiles
/// reflect the last `window_seconds` of traffic instead of process lifetime —
/// the difference between "p99 over the whole run" and "p99 *now*", which is
/// what live SLO surfaces (/statusz, wqe_top) need.
///
/// The window is divided into kEpochSlots epochs. Observe lands in the slot
/// of the current epoch; the first observation of a new epoch claims the
/// slot (a CAS on its epoch tag) and clears the expired counts it held.
/// Snap merges every slot whose tag is still inside the window, so a read
/// covers between (k-1)/k and k/k of the window depending on where the
/// current epoch stands. All accesses are atomic: concurrent observers and
/// readers are race-free, and the only imprecision is a few samples of slop
/// at an epoch boundary (an observation racing the claimant's clear may be
/// dropped) — noise for monitoring, never corruption.
class SlidingHistogram {
 public:
  static constexpr size_t kEpochSlots = 8;

  explicit SlidingHistogram(double window_seconds = 60.0);

  void Observe(uint64_t value) { ObserveAt(value, MonotonicNowNs()); }
  Histogram::Snapshot Snap() const { return SnapAt(MonotonicNowNs()); }

  /// Deterministic test seams: same logic, caller-supplied clock.
  void ObserveAt(uint64_t value, uint64_t now_ns);
  Histogram::Snapshot SnapAt(uint64_t now_ns) const;

  double window_seconds() const;
  void Reset();

 private:
  /// Tag for a slot that has never carried an epoch (skipped on read).
  static constexpr uint64_t kIdleEpoch = ~uint64_t{0};

  struct Slot {
    Histogram hist;
    std::atomic<uint64_t> epoch{kIdleEpoch};
  };

  uint64_t epoch_ns_;
  std::array<Slot, kEpochSlots> slots_;
};

/// Named metric registry shared by one observation scope (a ChaseContext, an
/// exploratory session, or a whole bench run). Registration takes a mutex;
/// the returned references are stable for the registry's lifetime, so hot
/// paths resolve their metrics once and then increment lock-free.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Sliding-window histogram (rolling SLO quantiles). `window_seconds`
  /// applies on first registration; later lookups return the existing
  /// instance unchanged.
  SlidingHistogram& sliding(std::string_view name, double window_seconds = 60.0);

  /// Zeroes every registered metric (names stay registered).
  void Reset();

  /// {"counters":{...},"gauges":{...},"histograms":{...},"windows":{...}}
  /// with keys sorted (std::map iteration order) so output is diffable.
  std::string ToJson() const;

  /// Registry walk, sorted by name — the exposition surfaces (/metricsz,
  /// /statusz) render from these rather than reaching into the maps.
  void ForEachCounter(
      const std::function<void(const std::string&, uint64_t)>& fn) const;
  void ForEachGauge(
      const std::function<void(const std::string&, int64_t)>& fn) const;
  void ForEachHistogram(const std::function<void(const std::string&,
                                                 const Histogram::Snapshot&)>&
                            fn) const;
  void ForEachSliding(
      const std::function<void(const std::string&, const Histogram::Snapshot&,
                               double window_seconds)>& fn) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<SlidingHistogram>, std::less<>>
      sliding_;
};

}  // namespace wqe::obs

#endif  // WQE_OBS_METRICS_H_
