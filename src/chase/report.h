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

  /// Assembles the provenance record for one solve: identity (algorithm,
  /// graph/options fingerprints, the question text), outcome, and the work,
  /// view, store and delta tallies of `result.stats` — the context's own,
  /// root evaluation included — plus the best answer's applied op sequence
  /// with per-op costs and the per-phase breakdown. A function of the
  /// context's identity facts and `result` alone: later evaluations on the
  /// context (lineage replays) do not change it. Its ToJson() is the query-log
  /// line and the `--explain` machine form.
  static obs::QueryLogRecord BuildQueryLogRecord(ChaseContext& ctx,
                                                 const ChaseResult& result,
                                                 Algorithm algo);

  /// Human-readable explain of a record: applied operator sequence with
  /// costs, per-phase self-time table, cache/store traffic, and termination.
  static std::string ExplainText(const obs::QueryLogRecord& rec);

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
