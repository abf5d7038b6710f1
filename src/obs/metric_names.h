#ifndef WQE_OBS_METRIC_NAMES_H_
#define WQE_OBS_METRIC_NAMES_H_

#include <string_view>

namespace wqe::obs {

/// The canonical inventory of every counter/gauge/histogram/window name the
/// library emits. DESIGN.md §8's "Metric inventory" table is written from
/// this list, and a registry-walk unit test (telemetry_test.cc) asserts that
/// (a) names observed at runtime are listed here and (b) every listed name
/// appears in DESIGN.md — so the doc cannot silently drift from the code
/// again (names did drift across PRs 4/6/7).
///
/// Adding a metric = add the emission site, add the name here, add the table
/// row; the test fails on any missing leg.
inline constexpr std::string_view kKnownMetricNames[] = {
    // counters
    "cache.evictions",
    "cache.hits",
    "cache.misses",
    "chase.bound_cuts",
    "chase.evaluations",
    "chase.fingerprint_renders",
    "chase.memo_hits",
    "chase.ops_generated",
    "chase.pruned",
    "chase.steps",
    "delta_eval.full_fallbacks",
    "delta_eval.hits",
    "delta_eval.reverified",
    "delta_eval.skipped",
    "match.ball.fills",
    "match.ball.hits",
    "match.focus_candidates",
    "match.focus_verified",
    "match.forward_prunes",
    "match.plan.compiles",
    "match.plan.hits",
    "match.stage.filtered",
    "match.stage.seeded",
    "match.stage.verified",
    "match.tables_built",
    "query_log.drops",
    "serve.admitted",
    "serve.completed",
    "serve.deadline_expired",
    "serve.shed",
    "solve.runs",
    "store.hits",
    "store.misses",
    "store.rejected",
    "store.saves",
    // gauges
    "cache.entries",
    "graph.nodes",
    "index.diameter",
    "pool.queue_depth",
    "proc.peak_rss_bytes",
    "proc.rss_bytes",
    // histograms
    "chase.evaluate_ns",
    "delta_eval.reverify_ns",
    "sampler.cache_entries",
    "sampler.queue_depth",
    "sampler.rss_bytes",
    "serve.latency_ns",
    "serve.queue_ns",
    "solve.latency_ns",
    "store.load_ns",
    "store.save_ns",
};

/// Parameterized name families: a family matches "<prefix><middle><suffix>"
/// with a non-empty middle. Covers the per-algorithm rolling solve-time
/// windows ("solve.AnsW.latency_ns", ...), whose middle is an Algorithm name.
struct MetricNameFamily {
  std::string_view prefix;
  std::string_view suffix;
  std::string_view example;  // documented representative for the table
};

inline constexpr MetricNameFamily kKnownMetricFamilies[] = {
    {"solve.", ".latency_ns", "solve.AnsW.latency_ns"},
};

/// Whether `name` is in the canonical inventory (exact or family match).
inline bool IsKnownMetricName(std::string_view name) {
  for (std::string_view known : kKnownMetricNames) {
    if (name == known) return true;
  }
  for (const MetricNameFamily& family : kKnownMetricFamilies) {
    if (name.size() > family.prefix.size() + family.suffix.size() &&
        name.substr(0, family.prefix.size()) == family.prefix &&
        name.substr(name.size() - family.suffix.size()) == family.suffix) {
      return true;
    }
  }
  return false;
}

}  // namespace wqe::obs

#endif  // WQE_OBS_METRIC_NAMES_H_
