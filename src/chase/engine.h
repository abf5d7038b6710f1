#ifndef WQE_CHASE_ENGINE_H_
#define WQE_CHASE_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "chase/next_op.h"
#include "chase/result.h"
#include "chase/solve.h"
#include "common/timer.h"

namespace wqe::engine {

/// THE comparison epsilon of the chase layer: budget feasibility and
/// closeness improvements are judged at this tolerance everywhere (it used
/// to be redeclared per solver file).
inline constexpr double kEps = 1e-9;

/// The one budget-feasibility predicate: an operator sequence of cost
/// `cost` fits the updating budget B iff cost <= B + kEps. Every budget
/// comparison in src/chase routes through here (enforced by the check.sh
/// lint).
inline bool WithinBudget(double cost, double budget) {
  return cost <= budget + kEps;
}

/// Maintains the top-k answers (§6.2), deduplicated by rewrite fingerprint.
/// Two solver-visible variants share this type:
///  - AnsW: a duplicate reached more cheaply updates the stored derivation,
///    and equal-closeness answers rank cheapest-first;
///  - AnsHeu: duplicates are ignored and ranking is by closeness alone.
class TopK {
 public:
  void Configure(size_t k, bool update_cheaper_duplicate, bool cost_tiebreak) {
    k_ = std::max<size_t>(k, 1);
    update_cheaper_duplicate_ = update_cheaper_duplicate;
    cost_tiebreak_ = cost_tiebreak;
  }

  /// Returns true when the best answer improved (the anytime-trace trigger).
  bool Offer(const EvalResult& eval);

  /// cl(Q*_k): the pruning threshold — the k-th best closeness, or -inf
  /// while fewer than k answers are known.
  double PruneThreshold() const {
    if (answers_.size() < k_) return -1e18;
    return answers_.back().closeness;
  }

  double BestCloseness() const {
    return answers_.empty() ? -1e18 : answers_.front().closeness;
  }

  const std::vector<NodeId>& BestMatches() const;

  size_t size() const { return answers_.size(); }
  std::vector<WhyAnswer> Take() { return std::move(answers_); }

 private:
  size_t k_ = 1;
  bool update_cheaper_duplicate_ = false;
  bool cost_tiebreak_ = false;
  std::vector<WhyAnswer> answers_;
};

/// Shared candidate/incumbent state of one engine run. Solvers read it from
/// their policies; report/session/bench consumers receive it folded into the
/// ChaseResult by Finalize().
struct ChaseState {
  ChaseState(uint64_t* steps_sink, uint64_t* pruned_sink)
      : steps(steps_sink), pruned(pruned_sink) {}

  Timer timer;
  TopK topk;
  std::vector<AnytimeSample> trace;
  /// Cheapest cost at which each rewrite key was reached (kCheapest dedup)
  /// or a first-visit marker (kFirstVisit).
  std::unordered_map<QueryKey, double, QueryKey::Hash> visited;
  /// Coverage-style incumbents (FMAnsW, ApxWhyM): best closeness seen at
  /// all, and best among Σ-consistent rewrites.
  std::shared_ptr<EvalResult> best_any;
  std::shared_ptr<EvalResult> best_sat;

  /// Counter sinks: usually &ctx.stats().steps / .pruned; solvers that keep
  /// the context's counters untouched (multi-focus) pass locals.
  uint64_t* steps;
  uint64_t* pruned;

  /// Refine-only proposals cut by AcceptPolicy::PruneByBound before their
  /// evaluation ran (also counted into `pruned`). Folded into
  /// ChaseStats::bound_cuts by Finalize.
  uint64_t bound_cuts = 0;

  /// Rewrite keys rendered by Run, one per materialized rewrite. Folded into
  /// ChaseStats::fingerprint_renders by Finalize.
  uint64_t fingerprint_renders = 0;

  bool out_of_time = false;  // deadline fired (loop head or mid-evaluation)
  bool exhausted = false;    // the frontier drained
  /// A policy decided the run's outcome (kOptimal, kBudget, ...).
  std::optional<TerminationReason> forced_termination;

  /// The best_any / best_sat update rule shared by the coverage solvers:
  /// strictly-better-by-kEps keeps the earliest maximal candidate.
  void Consider(const std::shared_ptr<EvalResult>& eval) {
    if (best_any == nullptr || eval->cl > best_any->cl + kEps) best_any = eval;
    if (eval->satisfies_exemplar &&
        (best_sat == nullptr || eval->cl > best_sat->cl + kEps)) {
      best_sat = eval;
    }
  }
};

/// One candidate chase step: rewrite `base_query` ⊕ `ops` at declared total
/// cost `cost`. Pointers refer into frontier-owned state and are valid for
/// the engine iteration that received the proposal (the engine is strictly
/// serial: Next → evaluate → Offer → Absorb before the next Next).
struct Proposal {
  const PatternQuery* base_query = nullptr;
  const OpSequence* base_ops = nullptr;  // nullptr = empty derivation prefix
  std::vector<Op> ops;                   // appended on top of base_ops
  double cost = 0;                       // declared c(base_ops ⊕ ops)
  int phase = 0;                         // policy-defined phase id
  int64_t tag = -1;                      // policy bookkeeping (seed index, …)
  /// Evaluation of the node this proposal rewrites (base_query's node), when
  /// the frontier has one. Feeds the delta evaluation path (parent-state
  /// reuse) and the pre-evaluation cl⁺ bound cut; null = no parent context,
  /// the evaluator falls back to a full evaluation. Same lifetime contract
  /// as base_query: valid for the engine iteration that received it.
  const EvalResult* base_eval = nullptr;
  /// Key of the materialized rewrite base_query ⊕ ops. Run renders it once,
  /// after applying the ops, and every later consumer — dedup, the
  /// evaluator's memo and plan lookups, the EvalResult — takes it from here.
  QueryKey key;
};

/// An evaluated proposal. `eval` summarizes the rewrite for the engine's
/// generic machinery (frontier ordering, TopK, budget/dedup bookkeeping);
/// `detail` carries a solver-specific payload (the multi-focus joint view)
/// that rides along untouched.
struct Judged {
  std::shared_ptr<EvalResult> eval;
  std::shared_ptr<void> detail;
};

/// A frontier entry: the classic ChaseNode (eval + lazily generated operator
/// queue) plus the solver payload of the Judged it was absorbed from.
struct Node {
  ChaseNode chase;
  std::shared_ptr<void> detail;
};

/// Which operators a frontier node may try, and in what order (GenRx/GenRf
/// pooling, picky ranking, per-class caps, random ablation).
class OperatorPolicy {
 public:
  virtual ~OperatorPolicy() = default;
  /// Fills node.chase.queue (must set chase.ops_generated).
  virtual void Expand(Node& node, ChaseState& state) = 0;
  /// Level-synchronous frontiers call this when a new level starts, before
  /// any of its nodes expand (AnsHeu snapshots the level-start incumbent).
  virtual void BeginLevel(ChaseState&) {}
};

/// Which chase node to try next: best-first heap, level-synchronous beam,
/// a fixed verification list, or a solver-specific phase machine.
class FrontierPolicy {
 public:
  virtual ~FrontierPolicy() = default;
  /// Loop-head exhaustion probe, checked BEFORE the step cap so that "the
  /// frontier drained" wins termination ties exactly as the legacy solvers
  /// did. Frontiers whose emptiness is only known by asking for work keep
  /// the default.
  virtual bool Empty(const ChaseState&) const { return false; }
  /// Emits the next proposal; false means the frontier is exhausted.
  virtual bool Next(ChaseState& state, Proposal* out) = 0;
  /// True when the frontier is at a point where the step cap may fire.
  /// Best-first and list frontiers check every iteration (the default);
  /// level-synchronous frontiers only honor the cap between levels, so a
  /// started level always completes (the legacy beam-search semantics).
  virtual bool AtStepCheckpoint() const { return true; }
  /// Receives the evaluation of the proposal this policy emitted last.
  /// Not called when the proposal was skipped (inapplicable, over budget,
  /// duplicate) or pruned.
  virtual void Absorb(Judged, const Proposal&, ChaseState&) {}
};

/// What counts as an answer, and which subtrees are dead (Σ-consistency,
/// closeness ranking, Lemma 5.5 pruning, answer-count predicates).
class AcceptPolicy {
 public:
  virtual ~AcceptPolicy() = default;
  /// True kills the subtree and counts it into `state.pruned`.
  virtual bool ShouldPrune(const Judged&, const Proposal&, ChaseState&) {
    return false;
  }
  /// Pre-evaluation cut for refine-only proposals: `bound` is the parent's
  /// cl⁺, which dominates every refinement's cl⁺ (RM shrinks monotonically
  /// under refinement, §5.4). Return true iff a child at that bound would be
  /// pruned by ShouldPrune — the engine then skips the evaluation entirely
  /// and counts the node as pruned, with identical answers, steps, and
  /// trace. Default: never cut (solvers without a closeness threshold).
  virtual bool PruneByBound(double /*bound*/, const Proposal&, ChaseState&) {
    return false;
  }
  /// Offers the evaluation to the solver's incumbents. Returns true when the
  /// best answer improved (records an anytime-trace sample when the run
  /// traces).
  virtual bool Offer(const Judged& judged, const Proposal& prop,
                     ChaseState& state) = 0;
};

/// When to stop beyond the engine-owned caps, and how to name the outcome.
class StopPolicy {
 public:
  virtual ~StopPolicy() = default;
  /// Checked at the loop head, after the frontier probe and step cap but
  /// before the deadline poll (solver-specific caps, e.g. FMAnsW's
  /// evaluation budget).
  virtual bool Done(const ChaseState&) { return false; }
  /// Checked right after Offer; true ends the run (first-success stop,
  /// optimality proof).
  virtual bool AfterOffer(const Judged&, const Proposal&, ChaseState&) {
    return false;
  }
  /// Names the outcome. The default cascade matches AnsW: a forced reason
  /// (optimal/budget) wins, then exhaustion, then the deadline, then the
  /// step cap.
  virtual TerminationReason Termination(const ChaseState& state) {
    if (state.forced_termination.has_value()) return *state.forced_termination;
    if (state.exhausted) return TerminationReason::kExhausted;
    if (state.out_of_time) return TerminationReason::kDeadline;
    return TerminationReason::kStepCap;
  }
};

/// Evaluates a rewrite produced by the engine (the ops are already applied
/// to the query, whose key is prop.key). May throw DeadlineExceeded; the
/// engine turns that into the anytime deadline return.
using EvalFn =
    std::function<Judged(PatternQuery&& query, OpSequence ops,
                         const Proposal& prop)>;

/// When the step counter ticks: at poll time, before applicability is known
/// (AnsW, AnsHeu, multi-focus), or only for proposals that survive to
/// evaluation (AnsWE, FMAnsW, ApxWhyM).
enum class StepCount { kAtPoll, kAtEvaluate };

enum class DedupMode {
  kOff,
  kFirstVisit,  // a rewrite is tried once, whatever its cost (AnsHeu)
  kCheapest,    // revisits allowed only at strictly lower cost (AnsW, MF)
};

struct EngineConfig {
  const ChaseOptions* opts = nullptr;
  FrontierPolicy* frontier = nullptr;
  AcceptPolicy* accept = nullptr;
  StopPolicy* stop = nullptr;  // nullptr = default StopPolicy
  EvalFn evaluate;
  StepCount step_count = StepCount::kAtPoll;
  DedupMode dedup = DedupMode::kOff;
  /// Reject proposals with !WithinBudget(prop.cost, opts->budget). Off for
  /// solvers whose operator generation already filters by budget.
  bool check_budget = false;
  /// Record AnytimeSamples into state.trace on best-answer improvements.
  bool record_trace = false;
  /// Loop-head deadline poll stride (see DeadlineGovernor). Solvers whose
  /// evaluation path is not deadline-armed must use 1.
  size_t deadline_stride = kDeadlineCheckStride;
};

/// Registers the root in the dedup table and offers it to the accept policy
/// (tracing an initial sample on improvement). Pruning, AfterOffer, and
/// Absorb are deliberately skipped for the root — exactly the legacy seed
/// sequence. Callers push the root into their frontier themselves.
void SeedRoot(const EngineConfig& cfg, ChaseState& state, const Judged& root);

/// The one Q-Chase driver loop. Per iteration:
///   frontier probe → step cap (at frontier checkpoints) → StopPolicy::Done →
///   strided deadline poll →
///   FrontierPolicy::Next → step tick (kAtPoll) → apply ops → budget check →
///   render the rewrite's key → dedup → step tick (kAtEvaluate) → evaluate
///   (DeadlineExceeded ⇒ anytime stop) → ShouldPrune → Offer (+trace) →
///   AfterOffer → Absorb.
/// On return, `state.out_of_time` has been refreshed with one final clock
/// poll so Termination() never mislabels a just-expired run.
void Run(const EngineConfig& cfg, ChaseState& state);

/// The WhyAnswer projection of an evaluation (also the root-fallback shape:
/// the root's ops are empty and its cost is 0).
WhyAnswer MakeAnswer(const EvalResult& eval);

/// Shared epilogue: root fallback answer when none was found, trace handoff,
/// elapsed time, termination reason, stats snapshot — in the exact legacy
/// order.
void Finalize(ChaseContext& ctx, ChaseState& state, TerminationReason reason,
              ChaseResult* result);

/// The default evaluator: a DeltaEvaluator over the context (star views,
/// cache, memo), evaluating each child against the proposal's `base_eval`
/// and falling back to ChaseContext::Evaluate when the delta is not local.
EvalFn ContextEval(ChaseContext& ctx);

/// Session-level ChaseStats accumulation (moved out of session.cc so every
/// consumer of engine runs aggregates identically).
void AccumulateStats(ChaseStats& total, const ChaseStats& delta);

/// Best-first frontier over (cl, cl⁺), the AnsW / multi-focus shape: the top
/// node expands lazily via the OperatorPolicy, drains one operator per Next,
/// and is popped when exhausted (procedure NextOp's backtrack).
class BestFirstFrontier : public FrontierPolicy {
 public:
  explicit BestFirstFrontier(OperatorPolicy* ops) : ops_(ops) {}

  void Push(Judged judged);

  bool Empty(const ChaseState&) const override { return heap_.empty(); }
  bool Next(ChaseState& state, Proposal* out) override;
  void Absorb(Judged judged, const Proposal&, ChaseState&) override {
    Push(std::move(judged));
  }

 private:
  struct Order {
    bool operator()(const std::shared_ptr<Node>& a,
                    const std::shared_ptr<Node>& b) const {
      // Max-heap on closeness; cl⁺ breaks ties toward promising subtrees.
      if (a->chase.eval->cl != b->chase.eval->cl) {
        return a->chase.eval->cl < b->chase.eval->cl;
      }
      return a->chase.eval->cl_plus < b->chase.eval->cl_plus;
    }
  };

  OperatorPolicy* ops_;
  std::priority_queue<std::shared_ptr<Node>, std::vector<std::shared_ptr<Node>>,
                      Order>
      heap_;
};

/// Level-synchronous beam frontier (AnsHeu): each level's nodes drain in
/// order; absorbed children collect, are ranked by (cl⁺, cl) at the level
/// boundary, and the best `beam` survive. BeginLevel fires on the operator
/// policy before a level's first expansion.
class BeamFrontier : public FrontierPolicy {
 public:
  BeamFrontier(OperatorPolicy* ops, size_t beam)
      : ops_(ops), beam_(std::max<size_t>(beam, 1)) {}

  /// Seeds the pre-first level; the first Next rolls it into level 1.
  void Seed(Judged judged) { AbsorbNode(std::move(judged)); }

  bool Empty(const ChaseState&) const override {
    return cur_ >= front_.size() && children_.empty();
  }
  bool Next(ChaseState& state, Proposal* out) override;
  bool AtStepCheckpoint() const override { return cur_ >= front_.size(); }
  void Absorb(Judged judged, const Proposal&, ChaseState&) override {
    AbsorbNode(std::move(judged));
  }

 private:
  void AbsorbNode(Judged judged);

  OperatorPolicy* ops_;
  size_t beam_;
  std::vector<std::shared_ptr<Node>> front_;
  std::vector<std::shared_ptr<Node>> children_;
  size_t cur_ = 0;
};

/// A fixed list of prepared rewrites verified in order (AnsWE's cheapest-
/// first repair verification, Why-Not's single repair).
class ListFrontier : public FrontierPolicy {
 public:
  struct Candidate {
    std::vector<Op> ops;
    double cost = 0;
    int64_t tag = -1;
  };

  /// `base_eval` (optional) is the evaluation of `base_query`'s chase node —
  /// AnsWE passes the root so its repairs ride the delta path. Must outlive
  /// the frontier.
  ListFrontier(const PatternQuery* base_query,
               std::vector<Candidate> candidates,
               const EvalResult* base_eval = nullptr)
      : base_query_(base_query),
        candidates_(std::move(candidates)),
        base_eval_(base_eval) {}

  bool Next(ChaseState& state, Proposal* out) override;

 private:
  const PatternQuery* base_query_;
  std::vector<Candidate> candidates_;
  const EvalResult* base_eval_ = nullptr;
  size_t next_ = 0;
};

/// The instrumented dispatcher: tracer installation, the solve.<algo> span,
/// deadline arming of the star matcher, per-run phase attribution, metric
/// mirroring, and query-log provenance — implemented once here, above every
/// solver bundle. ExecuteWithContext is a validation shim over this.
ChaseResult RunAlgorithm(ChaseContext& ctx, Algorithm algo);

}  // namespace wqe::engine

#endif  // WQE_CHASE_ENGINE_H_
