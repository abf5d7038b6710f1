#ifndef WQE_CHASE_SOLVE_H_
#define WQE_CHASE_SOLVE_H_

#include <cstdint>
#include <optional>
#include <string_view>

#include "chase/result.h"
#include "obs/query_log.h"

namespace wqe {

/// The paper's solver roster behind one dispatcher. Every algorithm consumes
/// the same (graph, Why-question, options) triple and produces a ChaseResult;
/// the ablations (AnsWnc, AnsWb, AnsHeuB) stay option toggles, not entries.
enum class Algorithm {
  kAnsW,     // anytime best-first Q-Chase (Fig 5) — the default
  kAnsWE,    // removal-only Why-Empty repair (§6.1)
  kAnsHeu,   // beam search, no backtracking (§5.5)
  kFMAnsW,   // frequent-pattern-mining reformulation baseline (§7, [21])
  kApxWhyM,  // budgeted max-coverage Why-Many refinement (Fig 9)
};

/// Canonical name ("AnsW", "AnsWE", ...).
const char* AlgorithmName(Algorithm algo);

/// Parses canonical names (case-insensitive) and the CLI's historical short
/// tokens: answ, whye/answe, heu/ansheu, fm/fmansw, whym/apxwhym.
std::optional<Algorithm> AlgorithmFromString(std::string_view name);

/// One Why-question submission — the unit of work every entry point (CLI,
/// benches, the serving layer) hands the solver. Bundling the question with
/// its options and algorithm makes a request self-describing: it can be
/// queued, logged, replayed from a query log, or shipped across the serving
/// API without side-channel arguments.
struct Request {
  WhyQuestion question;
  ChaseOptions options;
  Algorithm algorithm = Algorithm::kAnsW;

  /// Build Response::report (the full per-solve provenance record, including
  /// the replayable question text). Off by default — reports serialize the
  /// best answer's operators and phases, which one-shot callers rarely want.
  bool collect_report = false;

  /// Caller-assigned correlation id, echoed on the Response. The solver never
  /// interprets it; the replay driver uses it to pair responses with trace
  /// records after out-of-order completion.
  uint64_t id = 0;
};

/// What came back. `status` is the boundary verdict — kInvalidArgument from
/// option validation, kOverloaded from serving-layer admission control — and
/// always mirrors result.status, so callers can triage without digging into
/// the result. A non-OK status carries an empty answer set, except kDeadline
/// terminations, which are OK with anytime answers.
struct Response {
  Status status;
  ChaseResult result;
  Algorithm algorithm = Algorithm::kAnsW;
  uint64_t id = 0;  // echoed Request::id

  /// Serving layer only: seconds spent queued between admission and the
  /// start of execution (0 when executed inline).
  double queue_seconds = 0;

  /// Per-solve provenance (engaged when Request::collect_report): the same
  /// record the query log persists, usable for explain output or replay.
  obs::QueryLogRecord report;

  bool ok() const { return status.ok(); }
  bool found() const { return result.found(); }
  const WhyAnswer& best() const { return result.best(); }
};

/// The unified solver entry point. Validates the request's options once
/// (ChaseOptions::Validate — a rejection returns a Response carrying the
/// status and no answers), builds the evaluation context, and dispatches.
Response Execute(const Graph& g, const Request& req);

/// Same, borrowing long-lived artifacts instead of building per call:
/// prebuilt graph indexes, a warm star-view cache, and a cross-request plan
/// memo (each may be null → private / absent). This is the serving layer's
/// hot path — every pointee must outlive the call and be safe to share
/// across concurrent Executes (GraphIndexes are immutable after build;
/// ViewCache and Matcher::SharedPlans synchronize internally).
Response Execute(const Graph& g, GraphIndexes* indexes, ViewCache* shared_cache,
                 Matcher::SharedPlans* shared_plans, const Request& req);

/// Dispatches against a prepared context (exploratory-search sessions and
/// the experiment runner share one context setup across questions). Also the
/// instrumentation boundary: the engine wraps the run in a `solve.<name>`
/// span, installs the context's tracer for WQE_SPAN sites below, records the
/// run's per-phase breakdown into `result.stats.phases`, and mirrors the
/// ChaseStats deltas into the context's metric registry.
Response ExecuteWithContext(ChaseContext& ctx, Algorithm algo,
                            bool collect_report = false);

/// Convenience wrapper over Execute for callers that only want the
/// ChaseResult (tests, examples, one-shot tooling).
ChaseResult Solve(const Graph& g, const WhyQuestion& w, const ChaseOptions& opts,
                  Algorithm algo = Algorithm::kAnsW);

namespace internal {

// The actual solver bodies (answ.cc, answe.cc, ans_heu.cc, fm_answ.cc,
// apx_whym.cc). Only the engine dispatcher and the parity tests call these
// directly: they skip validation and observability bookkeeping.
ChaseResult RunAnsW(ChaseContext& ctx);
ChaseResult RunAnsWE(ChaseContext& ctx);
ChaseResult RunAnsHeu(ChaseContext& ctx);
ChaseResult RunFMAnsW(ChaseContext& ctx);
ChaseResult RunApxWhyM(ChaseContext& ctx);

}  // namespace internal

}  // namespace wqe

#endif  // WQE_CHASE_SOLVE_H_
