#ifndef WQE_CHASE_WHY_H_
#define WQE_CHASE_WHY_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/timer.h"
#include "exemplar/closeness.h"
#include "exemplar/exemplar.h"
#include "query/query.h"

namespace wqe {

namespace obs {
struct Observability;
class QueryLog;
}  // namespace obs

/// A Why-question W = (Q(u_o), ℰ) (§2.2): the original query plus the
/// exemplar describing the desired answers.
struct WhyQuestion {
  PatternQuery query;
  Exemplar exemplar;
};

/// Tunables for all Q-Chase algorithms. Defaults follow the paper's
/// experimental setup (§7): budget B = 3, edge bounds capped at b_m = 3.
struct ChaseOptions {
  /// Query-updating cost budget B.
  double budget = 3.0;

  /// Workers for the parallel evaluation layer: candidate verification,
  /// star-table materialization, operator scoring, and (for contexts that
  /// own their indexes) the distance-index build. 0 = hardware concurrency,
  /// 1 = the exact legacy serial path. Results are deterministic and
  /// byte-identical across settings (index-addressed outputs + ordered
  /// reductions; see DESIGN.md "Parallel execution").
  size_t num_threads = 1;

  /// Maximum edge bound b_m.
  uint32_t max_bound = 3;

  /// θ / λ of the closeness measure.
  ClosenessConfig closeness;

  /// Star-view caching (§5.2). Off = the AnsWnc ablation.
  bool use_cache = true;

  /// Fingerprint memoization of evaluated rewrites. This is caching too, so
  /// the AnsWnc / AnsWb ablations disable it together with the view cache.
  bool use_memo = true;

  /// The §5.4 pruning strategies: RefineCond/RelaxCond phase gating plus
  /// subtree pruning and cl* early termination. Off = the AnsWb ablation
  /// (which also implies use_cache = false in the paper's setup).
  bool use_pruning = true;

  /// Compiled, staged match pipeline (DESIGN.md "Match pipeline"): per-node
  /// filters compile once per query-node signature into FilterPlans (label
  /// seed + attribute predicates grouped by AttrId) and candidate probes run
  /// a single merged walk of each node's sorted attribute tuple instead of
  /// re-interpreting literals. Answers are byte-identical either way; off =
  /// the abl_match_pipeline control arm.
  bool use_match_pipeline = true;

  /// Recognize rewrites already reached by another operator order. The
  /// naive AnsWb baseline turns this off and enumerates the raw Q-Chase
  /// tree, where equal rewrites reached by different sequences are distinct
  /// nodes (bounded by max_steps).
  bool dedup_rewrites = true;

  /// Beam width for AnsHeu; ignored by AnsW.
  size_t beam = 2;

  /// AnsHeuB: replace picky ranking by seeded random operator selection.
  bool random_ops = false;
  uint64_t seed = 42;

  /// Number of rewrites to report (top-k query suggestion, §6.2).
  size_t top_k = 1;

  /// Valuation witnesses sampled per focus match when generating refinement
  /// operators (bounds GenRf's work on dense graphs).
  size_t max_witnesses = 4;

  /// Caps on focus matches inspected by operator generation.
  size_t max_diagnosed_nodes = 64;

  /// Safety valve on simulated Q-Chase steps.
  size_t max_steps = 200000;

  /// Wall-clock budget; default never expires. AnsW is anytime: it returns
  /// the best rewrite found when the deadline fires.
  Deadline deadline;

  /// Per-question time limit in seconds (0 = none). Unlike `deadline`
  /// (an absolute expiry), this is re-armed when a ChaseContext is created,
  /// so one options object can drive a whole batch of questions.
  double time_limit_seconds = 0;

  /// Observation scope (metrics registry + span tracer) shared across
  /// questions. Null = each ChaseContext owns a private scope. The pointee
  /// must outlive every context built from these options.
  obs::Observability* observability = nullptr;

  /// Structured query-log sink: when set, every Execute/ExecuteWithContext call
  /// appends one JSONL provenance record (algorithm, fingerprints, applied
  /// op sequence, per-phase self-times, the context's own cache/store/delta
  /// tallies, termination — see DESIGN.md "Telemetry & regression gating").
  /// The line is the record Response::report carries for the same solve.
  /// Null = no logging, no cost. The pointee must outlive every solve issued
  /// with these options; one log may be shared by concurrent solvers
  /// (appends are serialized).
  obs::QueryLog* query_log = nullptr;

  /// Root directory of the persistent artifact store (DESIGN.md
  /// "Persistence"). Non-empty = contexts with a private star-view cache
  /// warm it from `<cache_dir>/fp-<graph fingerprint>/` and persist it on
  /// destruction. Graph indexes are not loaded from here: contexts build
  /// them or borrow them (e.g. from a MappedServingState the caller opened
  /// with OpenOrBuildServingState). Empty = fully in-memory.
  std::string cache_dir;

  /// Boundary validation for the Execute entry points: rejects option
  /// combinations the solvers would otherwise have to clamp silently
  /// (top_k/beam/max_bound of 0, negative budget or time limit, θ/λ outside
  /// [0, 1]). Execute and ExploratorySession call this once; the solvers then
  /// assume well-formed options.
  Status Validate() const;

  /// FNV-1a hash over the solver-relevant knobs (budget, bounds, closeness
  /// config, toggles, beam, top_k, seed, caps). Identifies "same workload
  /// configuration" in query-log records; deliberately excludes runtime-only
  /// fields (threads, deadlines, observability/log pointers, cache_dir) so
  /// re-running a logged query on different hardware hashes identically.
  uint64_t Fingerprint() const;
};

}  // namespace wqe

#endif  // WQE_CHASE_WHY_H_
