#ifndef WQE_CHASE_EVAL_H_
#define WQE_CHASE_EVAL_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "chase/why.h"
#include "exemplar/relevance.h"
#include "exemplar/rep.h"
#include "graph/adom.h"
#include "graph/diameter.h"
#include "graph/distance_index.h"
#include "match/star_matcher.h"
#include "obs/observability.h"
#include "query/op_sequence.h"
#include "store/mmap_layout.h"

namespace wqe {

namespace store {
class ArtifactStore;
}  // namespace store

/// Everything known about one chase node (Q_i, ℰ_i): the rewrite, how it was
/// derived, its answer, relevance classification, and closeness scores.
struct EvalResult {
  PatternQuery query;
  QueryKey key;     // QueryKey::Of(query), rendered once per rewrite
  OpSequence ops;   // Q = Q_0 ⊕ ops
  double cost = 0;  // c(ops)

  std::vector<NodeId> matches;  // Q(G)
  RelevanceSets rel;
  double cl = 0;       // cl(Q(G), ℰ)
  double cl_plus = 0;  // cl⁺(Q, ℰ) upper bound (§5.4)

  /// True when Q(G) ⊨ ℰ — i.e. the rewrite is an *answer* to the
  /// Why-question (Theorem 4.3), not just an intermediate chase node.
  bool satisfies_exemplar = false;

  bool refined = false;  // ops contains at least one refinement operator
};

/// Why the chase stopped. Anytime-mode callers (fig10l) need to distinguish
/// "proved optimal" from "ran out of time" from "explored everything the
/// budget admits" — a lone bool cannot.
enum class TerminationReason {
  kOptimal,    // best answer reached the theoretical optimal cl* (§5.4)
  kExhausted,  // the (pruned) chase tree was explored completely
  kDeadline,   // the wall-clock deadline fired (anytime return)
  kStepCap,    // ChaseOptions::max_steps safety valve
  kBudget,     // no applicable operator fits the remaining budget B
};

const char* TerminationReasonName(TerminationReason reason);

/// Aggregate counters for the efficiency experiments.
struct ChaseStats {
  uint64_t steps = 0;             // simulated Q-Chase steps
  uint64_t evaluations = 0;       // rewrites evaluated against G
  uint64_t memo_hits = 0;         // rewrites recognized via fingerprint
  uint64_t ops_generated = 0;     // picky operators produced
  uint64_t pruned = 0;            // chase nodes pruned by §5.4
  uint64_t bound_cuts = 0;        // refine children cut by the parent's cl⁺
                                  // bound before evaluation (delta path)
  uint64_t fingerprint_renders = 0;  // rewrite keys rendered (QueryKey::Of)
  // Delta evaluation (ChaseContext::Evaluate with a parent and applied ops).
  uint64_t delta_hits = 0;            // evaluated incrementally from a parent
  uint64_t delta_full_fallbacks = 0;  // delta offers evaluated in full
  // Star-view traffic of this context's star matcher, root evaluation
  // included (shared caches count each context's own lookups here). Only
  // full evaluations read star views.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t tables_built = 0;
  // The private artifact store's star-view warm at construction: one hit or
  // one miss, or neither without a private store.
  uint64_t store_hits = 0;
  uint64_t store_misses = 0;
  double elapsed_seconds = 0;
  TerminationReason termination = TerminationReason::kExhausted;
  /// Per-phase breakdown of this run (from the context's tracer): where the
  /// wall/CPU time inside `elapsed_seconds` actually went.
  std::vector<obs::PhaseStat> phases;

  bool reached_optimal() const {
    return termination == TerminationReason::kOptimal;
  }
};

/// Question-independent, graph-level indexes: active domains (cost-model
/// normalizers), the effective diameter, and the distance index of [2].
/// Build once per graph and share across Why-questions — the experimental
/// setup of §7 prebuilds these for every algorithm.
struct GraphIndexes {
  /// `num_threads` parallelizes the distance-index construction
  /// (0 = hardware concurrency); the resulting labeling is byte-identical
  /// to the serial build.
  explicit GraphIndexes(const Graph& g, size_t num_threads = 1);

  /// Assembles from already-restored components (the bundle open path).
  GraphIndexes(ActiveDomains restored_adom, uint32_t restored_diameter,
               DistanceIndex restored_dist)
      : adom(std::move(restored_adom)),
        diameter(restored_diameter),
        dist(std::move(restored_dist)) {}

  ActiveDomains adom;
  uint32_t diameter;
  DistanceIndex dist;
};

/// Zero-copy serving state restored from a store v2 mmap bundle: the mapped
/// graph plus GraphIndexes assembled from the bundle's restored components.
/// The bundle member is declared first so the indexes (whose DistanceIndex
/// references the bundle-owned graph) are torn down before the mapping.
/// Heap-pinned like the bundle itself.
struct MappedServingState {
  explicit MappedServingState(std::unique_ptr<store::MappedBundle> b);
  ~MappedServingState();

  MappedServingState(const MappedServingState&) = delete;
  MappedServingState& operator=(const MappedServingState&) = delete;

  const Graph& graph() const { return bundle->graph(); }

  std::unique_ptr<store::MappedBundle> bundle;
  GraphIndexes indexes;
};

/// Opens `store`'s bundle and assembles the serving state. NotFound = no
/// bundle yet (build heap-side, SaveBundle, retry); other failures mean the
/// bundle was rejected and the caller should rebuild it.
Status OpenServingState(store::ArtifactStore& store,
                        const DistanceIndex::Options& opts,
                        const store::BundleOpenOptions& open_opts,
                        std::unique_ptr<MappedServingState>* out);

/// The tools' --cache-dir entry point: open the store's bundle zero-copy; on
/// miss or rejection build the indexes heap-side, write the bundle, and
/// re-open it. After the first run the heap build is skipped entirely.
Status OpenOrBuildServingState(const Graph& g, store::ArtifactStore& store,
                               size_t num_threads,
                               std::unique_ptr<MappedServingState>* out);

/// Shared evaluation context for one Why-question: graph-side indexes
/// (owned or borrowed), the exemplar representation rep(ℰ, V), the focus
/// universe V_{u_o}, the star-view evaluator with its cache, and a
/// fingerprint memo so each distinct rewrite is evaluated once.
///
/// V_{u_o} is fixed to the *label class* of the original focus — the
/// candidate superset shared by every rewrite (operators never change
/// labels) — so closeness values are comparable across chase nodes, matching
/// the one-time initialization of AnsW line 1.
class ChaseContext {
 public:
  /// Owns freshly-built graph indexes (convenient one-shot use).
  ChaseContext(const Graph& g, const WhyQuestion& w, const ChaseOptions& opts);

  /// Borrows prebuilt indexes (batch experiments; `indexes` must outlive
  /// the context).
  ChaseContext(const Graph& g, GraphIndexes* indexes, const WhyQuestion& w,
               const ChaseOptions& opts);

  /// Additionally shares an external star-view cache across questions —
  /// star tables depend only on the graph and star signature, so an
  /// exploratory session (Fig 3) carries one cache through all its
  /// Why-questions. Both pointers must outlive the context; `shared_cache`
  /// may be null.
  ChaseContext(const Graph& g, GraphIndexes* indexes, ViewCache* shared_cache,
               const WhyQuestion& w, const ChaseOptions& opts);

  /// The serving layer's full artifact-sharing form: prebuilt indexes, a
  /// shared star-view cache, and a shared matcher plan memo, all owned by
  /// the server and outliving the context. Any of the three pointers may be
  /// null (falls back to private / absent).
  ChaseContext(const Graph& g, GraphIndexes* indexes, ViewCache* shared_cache,
               Matcher::SharedPlans* shared_plans, const WhyQuestion& w,
               const ChaseOptions& opts);

  /// Persists the private star-view cache to the artifact store when
  /// ChaseOptions::cache_dir is set (shared caches are persisted by their
  /// owner, which outlives the contexts).
  ~ChaseContext();

  /// Evaluates a rewrite: answer, relevance, closeness. Matches are memoized
  /// by the rewrite's key (= QueryKey::Of(q), which the engine renders once
  /// per rewrite); `ops` and its cost are recorded per call. The short form
  /// renders the key itself and counts the render.
  std::shared_ptr<EvalResult> Evaluate(const PatternQuery& q,
                                       const QueryKey& key, OpSequence ops) {
    return EvaluateAs(DeltaClass::kFull, q, key, std::move(ops), nullptr);
  }
  std::shared_ptr<EvalResult> Evaluate(const PatternQuery& q, OpSequence ops) {
    return Evaluate(q, RenderKey(q), std::move(ops));
  }

  /// Evaluates child rewrite `q` = parent ⊕ `applied` (DESIGN.md
  /// "Incremental evaluation"), where `parent` is the evaluation of the
  /// proposal's base query (null = none). The operators are monotone in the
  /// match set (§4):
  ///
  ///   relax-only  ops ⇒ Q(G) ⊆ Q'(G)  — the parent's matches carry over;
  ///                                      only candidates outside them can be
  ///                                      new,
  ///   refine-only ops ⇒ Q'(G) ⊆ Q(G)  — only the parent's matches can
  ///                                      survive.
  ///
  /// Either way only the affected candidates are verified, with the exact
  /// matcher the full path runs and no star view — so the match set, and
  /// every closeness value downstream, is identical to a full evaluation.
  /// When the delta is not provably local (no parent, an empty or no-op
  /// payload, mixed polarity) the rewrite is evaluated in full and counted
  /// as a delta_eval.full_fallbacks. Operators on the focus node stay
  /// incremental: the inclusions are polarity properties of the whole
  /// pattern. May throw DeadlineExceeded (the engine's anytime stop).
  ///
  /// Every form aborts, in every build type, on a query whose focus label
  /// differs from the question's: its matches would lie outside V_{u_o}, and
  /// its relevance split and closeness would mean nothing.
  std::shared_ptr<EvalResult> Evaluate(const PatternQuery& q,
                                       const QueryKey& key, OpSequence ops,
                                       const EvalResult* parent,
                                       const std::vector<Op>& applied);

  /// Evaluates a rewrite with the plain exact matcher — no star views, no
  /// memo, no chase counters. This is the FMAnsW baseline's evaluation
  /// semantics (§7's "no star-view" arm), centralized here so solver policy
  /// files never call the matcher directly (tools/check.sh enforces this).
  std::shared_ptr<EvalResult> EvaluateBaseline(PatternQuery q, QueryKey key,
                                               OpSequence ops, double cost);
  std::shared_ptr<EvalResult> EvaluateBaseline(PatternQuery q, OpSequence ops,
                                               double cost) {
    QueryKey key = RenderKey(q);
    return EvaluateBaseline(std::move(q), std::move(key), std::move(ops),
                            cost);
  }

  /// QueryKey::Of(q), counted into stats().fingerprint_renders.
  QueryKey RenderKey(const PatternQuery& q) {
    ++stats_.fingerprint_renders;
    return QueryKey::Of(q);
  }

  /// The evaluated original query Q_0 (chase root).
  const std::shared_ptr<EvalResult>& root() const { return root_; }

  /// Q(G) ⊨ ℰ for a match set of this question's focus (sorted, within
  /// V_{u_o}): intersects it with the per-tuple Vsim sets computed once over
  /// V_{u_o} and runs only the Lemma 2.2 constraint fixpoint — the verdict
  /// ComputeRep(closeness(), exemplar, matches).nontrivial gives, without
  /// its similarity and closeness passes.
  bool SatisfiesExemplar(const std::vector<NodeId>& matches) const;

  // Question-level precomputation.
  const RepResult& rep() const { return rep_; }
  double cl_star() const { return cl_star_; }
  const std::vector<NodeId>& focus_universe() const { return universe_; }

  double OpCostOf(const Op& op) const {
    return OpCost(op, indexes_->adom, indexes_->diameter);
  }
  double SeqCost(const OpSequence& seq) const {
    return seq.Cost(indexes_->adom, indexes_->diameter);
  }

  // Components.
  const Graph& graph() const { return g_; }
  const WhyQuestion& question() const { return w_; }
  const ChaseOptions& options() const { return opts_; }
  const ActiveDomains& adom() const { return indexes_->adom; }
  uint32_t diameter() const { return indexes_->diameter; }
  DistanceIndex& dist() { return indexes_->dist; }
  const ClosenessEvaluator& closeness() const { return closeness_; }
  StarMatcher& star_matcher() { return star_matcher_; }
  ViewCache* cache() { return opts_.use_cache ? active_cache_ : nullptr; }

  ChaseStats& stats() { return stats_; }

  /// Serde::GraphFingerprint of the graph, computed on first use and
  /// memoized (the fingerprint serializes the whole graph — query-log
  /// provenance wants it per record, but only pays once per context).
  uint64_t graph_fingerprint();

  /// The observation scope this context reports into: the one supplied via
  /// ChaseOptions::observability (sessions / benches share a registry across
  /// questions) or a private instance otherwise — never null.
  obs::Observability& obs() { return *obs_; }

  /// The context tracer's phases just before the root evaluation, which
  /// runs traced into it: a solve record's phases are the difference from
  /// here, so they cover every evaluation that stats() counts.
  const std::vector<obs::PhaseStat>& phase_baseline() const {
    return phase_baseline_;
  }

 private:
  enum class DeltaClass { kFull, kRelax, kRefine };

  /// Aborts unless `q`'s focus label is the question's (see Evaluate).
  void RequireQuestionFocus(const PatternQuery& q) const;

  /// kRelax / kRefine when every applied op has that polarity; kFull
  /// otherwise (empty payload, noops, mixed polarity).
  static DeltaClass ClassifyDelta(const std::vector<Op>& applied);

  /// The one evaluation body: memo, stats, match set (full, or the `cls`
  /// delta against `parent`), relevance split, cl/cl⁺ and the exemplar test.
  std::shared_ptr<EvalResult> EvaluateAs(DeltaClass cls, const PatternQuery& q,
                                         const QueryKey& key, OpSequence ops,
                                         const EvalResult* parent);

  /// The child's match set from `parent`'s alone, with no star view: a
  /// refine child re-verifies the parent's matches; a relax child keeps them
  /// and verifies only its own focus candidates outside them.
  std::vector<NodeId> DeltaMatches(DeltaClass cls, const PatternQuery& q,
                                   const QueryKey& key,
                                   const EvalResult& parent);

  const Graph& g_;
  WhyQuestion w_;
  ChaseOptions opts_;

  std::unique_ptr<obs::Observability> owned_obs_;
  obs::Observability* obs_;
  // Metrics resolved once at construction; incremented lock-free after.
  obs::Counter* c_evaluations_ = nullptr;
  obs::Counter* c_memo_hits_ = nullptr;
  obs::Histogram* h_evaluate_ns_ = nullptr;
  obs::Counter* c_delta_hits_ = nullptr;
  obs::Counter* c_full_fallbacks_ = nullptr;
  obs::Counter* c_reverified_ = nullptr;
  obs::Counter* c_skipped_ = nullptr;
  obs::Histogram* h_reverify_ns_ = nullptr;

  // Warms the private star-view cache and persists it on teardown.
  std::unique_ptr<store::ArtifactStore> owned_store_;

  std::unique_ptr<GraphIndexes> owned_indexes_;
  GraphIndexes* indexes_;
  ClosenessEvaluator closeness_;
  ViewCache cache_;            // used when no shared cache is supplied
  ViewCache* active_cache_;    // &cache_ or the shared one
  StarMatcher star_matcher_;

  std::vector<NodeId> universe_;  // V_{u_o}
  TupleMatchSets vsim_sets_;      // per tuple: its Vsim matches in V_{u_o}
  RepResult rep_;
  double cl_star_ = 0;

  std::vector<obs::PhaseStat> phase_baseline_;
  std::shared_ptr<EvalResult> root_;
  std::unordered_map<QueryKey, std::vector<NodeId>, QueryKey::Hash>
      match_memo_;
  ChaseStats stats_;
  uint64_t graph_fingerprint_ = 0;  // 0 = not yet computed
};

}  // namespace wqe

#endif  // WQE_CHASE_EVAL_H_
