#ifndef WQE_OBS_QUERY_LOG_H_
#define WQE_OBS_QUERY_LOG_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"

namespace wqe::obs {

struct JsonValue;

/// Strict parse of the "%016llx" fingerprints ToJson writes: 1..16 hex
/// digits, nothing else. Rejects what strtoull would silently accept —
/// leading whitespace/sign, "0x" prefixes, trailing junk, out-of-range
/// saturation to ULLONG_MAX, and the empty string — so a damaged log line
/// surfaces as a skipped record, not as provenance quietly keyed to the
/// wrong (or zero) graph.
Status ParseHexFingerprint(std::string_view text, uint64_t* out);

/// One per-solve provenance record — everything needed to replay, triage, or
/// mine a production query log offline (the paper's §6 workload selection is
/// driven by exactly such a log). Serialized as one JSON object per line;
/// the schema is documented in DESIGN.md ("Telemetry & regression gating").
struct QueryLogRecord {
  // ---- identity -----------------------------------------------------------
  std::string algorithm;      // "AnsW", "ApxWhyM", ...
  std::string question_kind;  // "why" | "why-empty" | "why-many"
  uint64_t graph_fingerprint = 0;    // store::Serde::GraphFingerprint
  uint64_t options_fingerprint = 0;  // hash of the solver-relevant options

  // ---- the question itself (replayable trace) -----------------------------
  /// The Why-question in the library's text formats (QueryText /
  /// ExemplarText), so a recorded log doubles as a traffic trace: the replay
  /// driver (serve/replay) parses these back against the same graph and
  /// re-issues the solve. Empty on records written before the serve layer
  /// existed — Load tolerates their absence, replay skips them.
  std::string query_text;
  std::string exemplar_text;

  // ---- outcome ------------------------------------------------------------
  std::string termination;  // TerminationReasonName
  std::string status;       // Status::ToString ("OK" or the rejection)
  double elapsed_seconds = 0;
  size_t num_answers = 0;
  double closeness = 0;   // best answer's cl (0 when no answer)
  double cl_star = 0;     // theoretical optimum for the question
  bool satisfied = false; // best answer satisfies the exemplar
  std::string answer_fingerprint;  // canonical form of the best rewrite

  // ---- work done ----------------------------------------------------------
  uint64_t steps = 0;
  uint64_t evaluations = 0;
  uint64_t memo_hits = 0;
  uint64_t ops_generated = 0;
  uint64_t pruned = 0;
  uint64_t bound_cuts = 0;  // refine children cut pre-evaluation (delta path)

  // ---- incremental evaluation (deltas for this solve) ---------------------
  uint64_t delta_hits = 0;            // evaluations served by the delta path
  uint64_t delta_full_fallbacks = 0;  // deltas not provably local
  // delta_hits by the rule that decided each child (DESIGN.md §6)
  uint64_t delta_refine = 0;
  uint64_t delta_relax = 0;
  uint64_t delta_focus_literal = 0;
  uint64_t delta_literal_family = 0;

  // ---- caches & views consulted (deltas for this solve) -------------------
  uint64_t cache_hits = 0;     // ViewCache
  uint64_t cache_misses = 0;
  uint64_t tables_built = 0;   // star views materialized
  uint64_t store_hits = 0;     // persistent artifact store
  uint64_t store_misses = 0;

  // ---- provenance ---------------------------------------------------------
  /// The operator sequence of the best answer, in application order.
  struct OpEntry {
    std::string text;   // human-readable operator ("relax bound(x,y) 2->3")
    std::string kind;   // "relax" | "refine"
    double cost = 0;    // c(op) under the paper's cost model
  };
  std::vector<OpEntry> ops;

  /// Per-phase self-time breakdown of this solve (name, count, wall/self/cpu).
  std::vector<PhaseStat> phases;

  /// Serializes as a single JSON object (no trailing newline).
  std::string ToJson() const;

  /// Rebuilds a record from a parsed JSON object. Missing fields default;
  /// a non-object input is rejected.
  static Result<QueryLogRecord> FromJson(const JsonValue& v);
};

/// Append-only JSONL sink for QueryLogRecords. Thread-safe: concurrent
/// solvers sharing one log serialize through a mutex and each record is
/// written with a single fwrite + flush, so a crash can truncate at most the
/// final line — which `Load` tolerates by design.
class QueryLog {
 public:
  /// Opens (creating or appending to) `path`.
  static Result<std::unique_ptr<QueryLog>> Open(const std::string& path);

  ~QueryLog();

  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Appends one record as a single line. Returns false on write failure
  /// (disk full, closed file) — callers treat logging as best-effort.
  bool Append(const QueryLogRecord& rec);

  const std::string& path() const { return path_; }
  uint64_t records_written() const;

  struct LoadResult {
    std::vector<QueryLogRecord> records;
    /// Lines that failed strict JSON parsing or record decoding. A value of
    /// 1 with the damage on the final line is the expected crash signature;
    /// anything else indicates external corruption.
    size_t skipped_lines = 0;
  };

  /// Reads a JSONL file back, skipping unparsable lines (torn final writes
  /// after a crash) instead of failing the whole load.
  static Result<LoadResult> Load(const std::string& path);

 private:
  QueryLog(std::string path, std::FILE* f);

  std::string path_;
  std::FILE* file_;
  mutable std::mutex mu_;
  uint64_t written_ = 0;
};

}  // namespace wqe::obs

#endif  // WQE_OBS_QUERY_LOG_H_
