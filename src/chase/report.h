#ifndef WQE_CHASE_REPORT_H_
#define WQE_CHASE_REPORT_H_

#include <string>
#include <string_view>

#include "chase/differential.h"
#include "chase/solve.h"
#include "obs/flight_recorder.h"
#include "obs/query_log.h"

namespace wqe {

/// Machine-readable rendering of chase results, for piping the CLI's output
/// into downstream tooling. Produces a self-contained JSON document: the
/// question's key figures (cl*, |rep|), every returned rewrite (query text,
/// operators, matches, closeness, cost), and optionally per-operator lineage.
class ChaseReport {
 public:
  /// Serializes `result` (produced against `ctx`) as JSON. When
  /// `with_lineage` is set, each answer carries its differential table
  /// (replayed through the context's memoized evaluations — cheap).
  static std::string ToJson(ChaseContext& ctx, const ChaseResult& result,
                            bool with_lineage = false);

  /// Counter values consulted by query-log provenance, snapshotted before a
  /// solve so the record carries this run's deltas. Zero-initialized works
  /// as "attribute the scope totals" (one-shot contexts, post-hoc explain).
  struct CounterSnapshot {
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t tables_built = 0;
    uint64_t store_hits = 0;
    uint64_t store_misses = 0;
    uint64_t delta_hits = 0;
    uint64_t delta_full_fallbacks = 0;
    uint64_t delta_reuse_hits = 0;
  };

  /// Reads the current values of the counters above from `ctx`'s registry.
  static CounterSnapshot SnapshotCounters(ChaseContext& ctx);

  /// Assembles the provenance record for one solve: identity (algorithm,
  /// graph/options fingerprints), outcome, work counters, cache/store deltas
  /// against `before`, the best answer's applied op sequence with per-op
  /// costs, and the per-phase breakdown from `result.stats.phases`. The
  /// three-argument form attributes the scope's counter totals (one-shot
  /// contexts, post-hoc explain).
  static obs::QueryLogRecord BuildQueryLogRecord(ChaseContext& ctx,
                                                 const ChaseResult& result,
                                                 Algorithm algo,
                                                 const CounterSnapshot& before);
  static obs::QueryLogRecord BuildQueryLogRecord(ChaseContext& ctx,
                                                 const ChaseResult& result,
                                                 Algorithm algo);

  /// The provenance record as a standalone JSON object — the `--explain`
  /// machine form; identical in schema to the query-log JSONL line.
  static std::string ExplainJson(ChaseContext& ctx, const ChaseResult& result,
                                 Algorithm algo);

  /// Human-readable explain: applied operator sequence with costs, per-phase
  /// self-time table, cache/store traffic, and termination.
  static std::string ExplainText(ChaseContext& ctx, const ChaseResult& result,
                                 Algorithm algo);

  /// Escapes a string for embedding in JSON output.
  static std::string Escape(std::string_view s);

  /// Compresses a solve's per-phase breakdown into the flight recorder's
  /// fixed-width digest: the top RequestDigest::kPhases phases by self time,
  /// names truncated to the digest's char budget. The long tail is what the
  /// server-wide MergedPhases rollup is for; the digest answers "where did
  /// THIS request's time go" at a glance.
  static void DigestPhases(const std::vector<obs::PhaseStat>& phases,
                           obs::RequestDigest& out);

  /// Stable 64-bit fingerprint of a Why-question: FNV-1a over the query's
  /// canonical form and the exemplar's content — every tuple cell (attr,
  /// value) and every constraint literal (kind, variables, op, constant).
  /// Groups repeats of the same question in /requestz without storing the
  /// question text in the fixed-memory ring.
  static uint64_t QuestionFingerprint(const WhyQuestion& question);
};

}  // namespace wqe

#endif  // WQE_CHASE_REPORT_H_
