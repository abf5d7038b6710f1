#ifndef WQE_CHASE_DELTA_EVAL_H_
#define WQE_CHASE_DELTA_EVAL_H_

#include <memory>
#include <vector>

#include "chase/eval.h"
#include "query/ops.h"

namespace wqe {

/// Incremental star re-verification (DESIGN.md "Incremental evaluation").
///
/// A chase step rewrites a parent query Q into a child Q' = Q ⊕ ops, and the
/// engine knows both the parent's evaluation and the ops that separate them.
/// The operators are monotone in the match set (§4):
///
///   relax-only  ops ⇒ Q(G) ⊆ Q'(G)  — the parent's matches carry over; only
///                                      candidates *outside* them can be new,
///   refine-only ops ⇒ Q'(G) ⊆ Q(G)  — only the parent's matches can survive;
///                                      nothing outside them needs a look.
///
/// DeltaEvaluator exploits exactly that: it reuses the parent's resolved star
/// tables for stars whose signature is unchanged, re-runs candidate filtering
/// against the child's tables, and verifies only the affected candidates with
/// the exact matcher — `candidates \ parent_matches` after a relaxation, the
/// table-filtered parent matches after a refinement. Verification itself is
/// the same IsMatchRestricted procedure the full path runs (complete on its
/// own; tables only prune), so the produced match set — and with it every
/// downstream closeness value and answer — is identical to a full evaluation.
///
/// Whenever the delta is NOT provably local the evaluator falls back to
/// ChaseContext::Evaluate wholesale: no parent evaluation, an empty or
/// no-op payload, or a mixed relax/refine payload (neither inclusion
/// holds). Operators on the focus node itself stay on the delta path — the
/// inclusions are polarity properties of the whole pattern, not of the
/// touched node, and verification re-checks candidates against the child
/// query exactly. Multi-focus joint evaluation never enters this path — its
/// solver evaluates per focus through the context directly.
///
/// The evaluator is a friend of ChaseContext: the delta path must mirror the
/// full path's memo, stats, and metrics accounting exactly (a delta hit is
/// still one chase evaluation), which shared member access keeps honest.
class DeltaEvaluator {
 public:
  explicit DeltaEvaluator(ChaseContext& ctx);

  /// Evaluates child rewrite `q` (= parent ⊕ `applied`, with key `key` =
  /// QueryKey::Of(q)), where `parent` is the evaluation of the proposal's
  /// base query (null = no parent context). `ops` is the child's full
  /// derivation, recorded on the result like the full path does. May throw
  /// DeadlineExceeded (the engine's anytime stop).
  std::shared_ptr<EvalResult> Evaluate(const PatternQuery& q,
                                       const QueryKey& key, OpSequence ops,
                                       const EvalResult* parent,
                                       const std::vector<Op>& applied);

 private:
  enum class DeltaClass { kFull, kRelax, kRefine };

  /// kRelax / kRefine when every applied op has that polarity; kFull
  /// otherwise (empty payload, noops, mixed polarity).
  static DeltaClass ClassifyDelta(const std::vector<Op>& applied);

  /// Relax-only delta: parent matches carry over; verify only the star-
  /// pruned candidates outside them and merge.
  std::vector<NodeId> RelaxDelta(const PatternQuery& q, const QueryKey& key,
                                 const EvalResult& parent,
                                 std::shared_ptr<const StarEvalState>* state);

  /// Refine-only delta: filter parent matches against the child tables we
  /// can get for free (reuse or cache — never materialized), then re-verify
  /// the survivors exactly.
  std::vector<NodeId> RefineDelta(const PatternQuery& q, const QueryKey& key,
                                  const EvalResult& parent,
                                  std::shared_ptr<const StarEvalState>* state);

  ChaseContext& ctx_;

  // Resolved once per evaluator (= per engine run); bumped lock-free after.
  obs::Counter* c_delta_hits_ = nullptr;
  obs::Counter* c_full_fallbacks_ = nullptr;
  obs::Counter* c_reuse_hits_ = nullptr;
  obs::Counter* c_reverified_ = nullptr;
  obs::Counter* c_skipped_ = nullptr;
  obs::Histogram* h_reverify_ns_ = nullptr;
};

}  // namespace wqe

#endif  // WQE_CHASE_DELTA_EVAL_H_
