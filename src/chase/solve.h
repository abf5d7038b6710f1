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

  /// Per-solve provenance (engaged when Request::collect_report): the one
  /// record the engine builds per solve — the query log persists this same
  /// record — from the context's identity and the solve's ChaseStats, so it
  /// is final when the solve returns. Render it with
  /// ChaseReport::ExplainText or ToJson.
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

namespace internal {

// The actual solver bodies (answ.cc, answe.cc, ans_heu.cc, fm_answ.cc,
// apx_whym.cc), reached through Execute / ExecuteWithContext and the
// Algorithm enumerator. Only the engine dispatcher calls these directly:
// they skip validation and observability bookkeeping.

/// Algorithm AnsW (Fig 5): anytime best-first simulation of the Q-Chase
/// tree with backtracking, picky-operator generation (Fig 7), the §5.4
/// pruning strategies, star-view caching, and the top-k extension of §6.2.
/// The ablations of §7 are option toggles:
///   AnsW    — defaults;
///   AnsWnc  — use_cache = false;
///   AnsWb   — use_cache = false, use_pruning = false.
ChaseResult RunAnsW(ChaseContext& ctx);

/// Algorithm AnsWE (§6.1, Lemma 6.2): answers removal-only Why-Empty
/// questions — Q returns no relevant match; revise it with RmL / RmE so at
/// least one relevant candidate becomes a match, in
/// O(|Q| · |rep(ℰ,V)| · |V|) time.
///
/// Each literal of the focus, each non-focus node (as a single anchored
/// edge at its pattern distance), and each literal of a non-focus node is an
/// *atomic condition* evaluated as its own query fragment. A relevant
/// candidate v is repairable iff the total cost of the removal operators for
/// the fragments v fails fits in B; the cheapest repairable candidate's
/// operator set is the answer.
ChaseResult RunAnsWE(ChaseContext& ctx);

/// Algorithm AnsHeu (§5.5): breadth-first beam search over the Q-Chase tree
/// with beam width k = ChaseOptions::beam. Each round expands every rewrite
/// in the beam with its top-k picky operators per class (at most 8k ops),
/// evaluates the children, and keeps the k best by closeness. No
/// backtracking — hence the flat time curves of Fig 10(d)-(g).
///
/// With ChaseOptions::random_ops = true this is AnsHeuB, the ablation that
/// replaces picky ranking by seeded random operator selection (Exp-3).
ChaseResult RunAnsHeu(ChaseContext& ctx);

/// Baseline FMAnsW (§7): query suggestion by frequent-pattern mining around
/// V_{u_o}, adapting the reformulation approach of Mottin et al. [21].
/// Mines features frequent among the exemplar-relevant nodes — attribute
/// values and adjacent labels — assembles candidate rewrites of the focus
/// star from feature subsets within the budget, and evaluates each from
/// scratch (no picky guidance, no star-view reuse), returning the rewrite
/// with the best closeness. Deliberately exhaustive over its bounded feature
/// lattice; the comparison baseline of Fig 10(a)/(i) and Fig 12.
ChaseResult RunFMAnsW(ChaseContext& ctx);

/// Algorithm ApxWhyM (Fig 9, Theorem 6.1): answers Why-Many questions —
/// refine Q (refinement operators only, cost ≤ B) so that as many
/// exemplar-irrelevant matches as possible are removed, maximizing
/// cl(Q'(G), ℰ).
///
/// Reduction to budgeted weighted max-coverage: each seed refinement
/// operator o covers IM(o) ⊆ I(u_o); greedy marginal-gain-per-cost
/// selection compared against the best single operator yields the
/// fixed-parameter ½(1 − 1/e) approximation.
ChaseResult RunApxWhyM(ChaseContext& ctx);

}  // namespace internal

}  // namespace wqe

#endif  // WQE_CHASE_SOLVE_H_
