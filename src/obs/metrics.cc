#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <sstream>

#include "obs/json.h"

namespace wqe::obs {

size_t MetricShardOfThisThread() {
  static std::atomic<size_t> next{0};
  thread_local const size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

namespace {

size_t BucketOf(uint64_t value) {
  // Bucket b holds values with bit width b+1: [2^b, 2^(b+1)); 0 joins bucket 0.
  return value == 0 ? 0 : static_cast<size_t>(std::bit_width(value) - 1);
}

}  // namespace

void Histogram::Observe(uint64_t value) {
  Shard& s = shards_[MetricShardOfThisThread()];
  s.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(value, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot snap;
  for (const Shard& s : shards_) {
    snap.count += s.count.load(std::memory_order_relaxed);
    snap.sum += s.sum.load(std::memory_order_relaxed);
    for (size_t b = 0; b < kBuckets; ++b) {
      snap.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return snap;
}

uint64_t Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count - 1));
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    const uint64_t in_bucket = buckets[b];
    seen += in_bucket;
    if (seen > rank) {
      // Bucket b covers [2^b, 2^(b+1)); its stored upper bound is
      // 2^(b+1) - 1 (saturating at the top bucket).
      const uint64_t hi = b >= 63 ? UINT64_MAX : (uint64_t{1} << (b + 1)) - 1;
      // Each of the bucket's in_bucket samples owns a 1/in_bucket slice;
      // answer with the midpoint of the rank's slice. Bucket 0 also holds
      // the value 0, so its interpolation floor is 0 rather than 1.
      const uint64_t lo = b == 0 ? 0 : uint64_t{1} << b;
      const double frac =
          (static_cast<double>(rank - (seen - in_bucket)) + 0.5) /
          static_cast<double>(in_bucket);
      return lo + static_cast<uint64_t>(frac * static_cast<double>(hi - lo));
    }
  }
  return UINT64_MAX;
}

void Histogram::Snapshot::Merge(const Snapshot& other) {
  count += other.count;
  sum += other.sum;
  for (size_t b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
}

void Histogram::Reset() {
  for (Shard& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
}

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SlidingHistogram::SlidingHistogram(double window_seconds) {
  if (window_seconds <= 0) window_seconds = 60.0;
  epoch_ns_ = std::max<uint64_t>(
      1, static_cast<uint64_t>(window_seconds * 1e9 /
                               static_cast<double>(kEpochSlots)));
}

double SlidingHistogram::window_seconds() const {
  return static_cast<double>(epoch_ns_) * kEpochSlots / 1e9;
}

void SlidingHistogram::ObserveAt(uint64_t value, uint64_t now_ns) {
  const uint64_t epoch = now_ns / epoch_ns_;
  Slot& slot = slots_[epoch % kEpochSlots];
  uint64_t tag = slot.epoch.load(std::memory_order_acquire);
  if (tag != epoch) {
    // First arrival of a new epoch claims the slot and clears the expired
    // counts it carried (the slot's previous epoch is >= kEpochSlots old, so
    // no window read still wants them). An observation racing the clear may
    // be wiped — bounded boundary slop, documented in the class comment.
    if (slot.epoch.compare_exchange_strong(tag, epoch,
                                           std::memory_order_acq_rel)) {
      slot.hist.Reset();
    }
  }
  slot.hist.Observe(value);
}

Histogram::Snapshot SlidingHistogram::SnapAt(uint64_t now_ns) const {
  Histogram::Snapshot out;
  const uint64_t current = now_ns / epoch_ns_;
  const uint64_t oldest =
      current >= kEpochSlots - 1 ? current - (kEpochSlots - 1) : 0;
  for (const Slot& slot : slots_) {
    const uint64_t tag = slot.epoch.load(std::memory_order_acquire);
    if (tag == kIdleEpoch || tag < oldest || tag > current) continue;
    out.Merge(slot.hist.Snap());
  }
  return out;
}

void SlidingHistogram::Reset() {
  for (Slot& slot : slots_) {
    slot.hist.Reset();
    slot.epoch.store(kIdleEpoch, std::memory_order_release);
  }
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

SlidingHistogram& MetricsRegistry::sliding(std::string_view name,
                                           double window_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sliding_.find(name);
  if (it == sliding_.end()) {
    it = sliding_
             .emplace(std::string(name),
                      std::make_unique<SlidingHistogram>(window_seconds))
             .first;
  }
  return *it->second;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
  for (auto& [name, s] : sliding_) s->Reset();
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out << ',';
    first = false;
    out << JsonString(name) << ':' << c->Value();
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out << ',';
    first = false;
    out << JsonString(name) << ':' << g->Value();
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out << ',';
    first = false;
    const Histogram::Snapshot s = h->Snap();
    out << JsonString(name) << ":{\"count\":" << s.count << ",\"sum\":" << s.sum
        << ",\"mean\":" << JsonNumber(s.Mean()) << ",\"p50\":" << s.Quantile(0.5)
        << ",\"p90\":" << s.Quantile(0.9) << ",\"p99\":" << s.Quantile(0.99)
        << '}';
  }
  out << "},\"windows\":{";
  first = true;
  for (const auto& [name, sh] : sliding_) {
    if (!first) out << ',';
    first = false;
    const Histogram::Snapshot s = sh->Snap();
    out << JsonString(name) << ":{\"window_s\":"
        << JsonNumber(sh->window_seconds()) << ",\"count\":" << s.count
        << ",\"sum\":" << s.sum << ",\"mean\":" << JsonNumber(s.Mean())
        << ",\"p50\":" << s.Quantile(0.5) << ",\"p90\":" << s.Quantile(0.9)
        << ",\"p99\":" << s.Quantile(0.99) << '}';
  }
  out << "}}";
  return out.str();
}

void MetricsRegistry::ForEachCounter(
    const std::function<void(const std::string&, uint64_t)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) fn(name, c->Value());
}

void MetricsRegistry::ForEachGauge(
    const std::function<void(const std::string&, int64_t)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, g] : gauges_) fn(name, g->Value());
}

void MetricsRegistry::ForEachHistogram(
    const std::function<void(const std::string&, const Histogram::Snapshot&)>&
        fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, h] : histograms_) fn(name, h->Snap());
}

void MetricsRegistry::ForEachSliding(
    const std::function<void(const std::string&, const Histogram::Snapshot&,
                             double)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, s] : sliding_) fn(name, s->Snap(), s->window_seconds());
}

}  // namespace wqe::obs
