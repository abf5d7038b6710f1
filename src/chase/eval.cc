#include "chase/eval.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "match/candidate_set.h"
#include "store/artifact_store.h"
#include "store/serde.h"

namespace wqe {

namespace {

DistanceIndex::Options DistOptions(size_t num_threads) {
  DistanceIndex::Options o;
  o.num_threads = num_threads;
  return o;
}

// Index builders, each under its own span (a no-op unless the calling
// thread has a tracer installed — benches and sessions do).

ActiveDomains BuildAdom(const Graph& g) {
  WQE_SPAN("index.adom");
  return ActiveDomains(g);
}

uint32_t BuildDiameter(const Graph& g) {
  WQE_SPAN("index.diameter");
  return EstimateDiameter(g);
}

DistanceIndex BuildDist(const Graph& g, size_t num_threads) {
  WQE_SPAN("index.dist_pll");
  return DistanceIndex(g, DistOptions(num_threads));
}

LabelId FocusLabel(const PatternQuery& q) { return q.node(q.focus()).label; }

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* TerminationReasonName(TerminationReason reason) {
  switch (reason) {
    case TerminationReason::kOptimal:
      return "optimal";
    case TerminationReason::kExhausted:
      return "exhausted";
    case TerminationReason::kDeadline:
      return "deadline";
    case TerminationReason::kStepCap:
      return "step_cap";
    case TerminationReason::kBudget:
      return "budget";
  }
  return "unknown";
}

GraphIndexes::GraphIndexes(const Graph& g, size_t num_threads)
    : adom(BuildAdom(g)),
      diameter(BuildDiameter(g)),
      dist(BuildDist(g, num_threads)) {}

MappedServingState::MappedServingState(std::unique_ptr<store::MappedBundle> b)
    : bundle(std::move(b)),
      indexes(bundle->TakeAdom(), bundle->diameter(), bundle->TakeDist()) {}

MappedServingState::~MappedServingState() = default;

Status OpenServingState(store::ArtifactStore& store,
                        const DistanceIndex::Options& opts,
                        const store::BundleOpenOptions& open_opts,
                        std::unique_ptr<MappedServingState>* out) {
  std::unique_ptr<store::MappedBundle> bundle;
  if (Status s = store.OpenBundle(opts, open_opts, &bundle); !s.ok()) return s;
  *out = std::make_unique<MappedServingState>(std::move(bundle));
  return Status::OK();
}

Status OpenOrBuildServingState(const Graph& g, store::ArtifactStore& store,
                               size_t num_threads,
                               std::unique_ptr<MappedServingState>* out) {
  const DistanceIndex::Options dopts = DistOptions(num_threads);
  if (OpenServingState(store, dopts, {}, out).ok()) return Status::OK();
  // Miss or rejection: build, persist the bundle, and serve from the mapping
  // so this process already exercises the exact bytes every later process
  // will.
  GraphIndexes built(g, num_threads);
  if (Status s =
          store.SaveBundle(g, built.adom, built.diameter, built.dist, dopts);
      !s.ok()) {
    return s;
  }
  return OpenServingState(store, dopts, {}, out);
}

ChaseContext::ChaseContext(const Graph& g, const WhyQuestion& w,
                           const ChaseOptions& opts)
    : ChaseContext(g, nullptr, nullptr, w, opts) {}

ChaseContext::ChaseContext(const Graph& g, GraphIndexes* indexes,
                           const WhyQuestion& w, const ChaseOptions& opts)
    : ChaseContext(g, indexes, nullptr, w, opts) {}

ChaseContext::ChaseContext(const Graph& g, GraphIndexes* indexes,
                           ViewCache* shared_cache, const WhyQuestion& w,
                           const ChaseOptions& opts)
    : ChaseContext(g, indexes, shared_cache, nullptr, w, opts) {}

ChaseContext::ChaseContext(const Graph& g, GraphIndexes* indexes,
                           ViewCache* shared_cache,
                           Matcher::SharedPlans* shared_plans,
                           const WhyQuestion& w, const ChaseOptions& opts)
    : g_(g),
      w_(w),
      opts_(opts),
      owned_obs_(opts.observability == nullptr
                     ? std::make_unique<obs::Observability>()
                     : nullptr),
      obs_(opts.observability == nullptr ? owned_obs_.get()
                                         : opts.observability),
      owned_store_(opts.cache_dir.empty()
                       ? nullptr
                       : std::make_unique<store::ArtifactStore>(
                             opts.cache_dir,
                             store::Serde::GraphFingerprint(g), obs_)),
      owned_indexes_(indexes == nullptr
                         ? std::make_unique<GraphIndexes>(g, opts.num_threads)
                         : nullptr),
      indexes_(indexes == nullptr ? owned_indexes_.get() : indexes),
      closeness_(g, indexes_->adom, opts.closeness),
      cache_(),
      active_cache_(shared_cache == nullptr ? &cache_ : shared_cache),
      star_matcher_(g, &indexes_->dist,
                    opts.use_cache ? active_cache_ : nullptr) {
  if (opts_.time_limit_seconds > 0) {
    opts_.deadline = Deadline::After(opts_.time_limit_seconds);
  }
  // Resolve hot-path metrics once (registration takes the registry mutex;
  // increments after this point are lock-free shard writes).
  c_evaluations_ = &obs_->metrics.counter("chase.evaluations");
  c_memo_hits_ = &obs_->metrics.counter("chase.memo_hits");
  h_evaluate_ns_ = &obs_->metrics.histogram("chase.evaluate_ns");
  c_delta_hits_ = &obs_->metrics.counter("delta_eval.hits");
  c_full_fallbacks_ = &obs_->metrics.counter("delta_eval.full_fallbacks");
  c_reverified_ = &obs_->metrics.counter("delta_eval.reverified");
  c_skipped_ = &obs_->metrics.counter("delta_eval.skipped");
  h_reverify_ns_ = &obs_->metrics.histogram("delta_eval.reverify_ns");
  obs_->metrics.gauge("index.diameter").Set(indexes_->diameter);
  obs_->metrics.gauge("graph.nodes").Set(static_cast<int64_t>(g.num_nodes()));
  star_matcher_.set_num_threads(opts_.num_threads);
  star_matcher_.set_observability(obs_);
  star_matcher_.set_shared_plans(shared_plans);
  star_matcher_.set_use_pipeline(opts_.use_match_pipeline);
  // Only the private cache reports into this context's scope. A shared cache
  // is cross-request state: its owner (session, runner, server) wires it to
  // one long-lived scope — rewiring it per context would race concurrent
  // solves and bleed one request's cache traffic into another's registry.
  if (active_cache_ == &cache_) active_cache_->set_observability(obs_);
  // Warm the private star-view cache from disk (shared caches are warmed by
  // their owner exactly once, not per question).
  if (owned_store_ != nullptr && opts_.use_cache && active_cache_ == &cache_) {
    // A rejected snapshot is a miss too: the views are rebuilt.
    ++(owned_store_->WarmStarViews(g_, &cache_).ok() ? stats_.store_hits
                                                      : stats_.store_misses);
  }
  // V_{u_o}: the label class of the original focus (all nodes any rewrite's
  // focus could match).
  const LabelId focus_label = FocusLabel(w_.query);
  if (focus_label == kWildcardSymbol) {
    universe_.resize(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) universe_[v] = v;
  } else {
    const std::span<const NodeId> bucket = g.NodesWithLabel(focus_label);
    universe_.assign(bucket.begin(), bucket.end());
  }

  vsim_sets_ = ComputeVsimSets(closeness_, w_.exemplar, universe_);
  rep_ = ComputeRepFromVsimSets(closeness_, w_.exemplar, vsim_sets_);
  cl_star_ = TheoreticalOptimal(rep_, universe_.size());

  // The root evaluation is counted in stats_, so it is traced into this
  // context's tracer after the baseline (see phase_baseline()).
  obs::TracerScope tracer_scope(&obs_->tracer);
  phase_baseline_ = obs_->tracer.Phases();
  root_ = Evaluate(w_.query, OpSequence());
}

ChaseContext::~ChaseContext() {
  if (owned_store_ != nullptr && opts_.use_cache && active_cache_ == &cache_ &&
      cache_.size() > 0) {
    owned_store_->SaveStarViews(cache_, cache_.options().max_entries);
  }
}

uint64_t ChaseContext::graph_fingerprint() {
  // Fnv1a never returns 0 on real graph bytes, so 0 works as "unset".
  if (graph_fingerprint_ == 0) {
    graph_fingerprint_ = store::Serde::GraphFingerprint(g_);
  }
  return graph_fingerprint_;
}

void ChaseContext::RequireQuestionFocus(const PatternQuery& q) const {
  // Operators never change a label or the focus, so only a caller can hand
  // in such a query; checked in every build type, since the wrong answer it
  // would produce is silent.
  if (FocusLabel(q) == FocusLabel(w_.query)) return;
  std::fprintf(stderr,
               "ChaseContext: rewrite focus label %u differs from the "
               "question's focus label %u\n",
               static_cast<unsigned>(FocusLabel(q)),
               static_cast<unsigned>(FocusLabel(w_.query)));
  std::abort();
}

ChaseContext::DeltaClass ChaseContext::ClassifyDelta(
    const std::vector<Op>& applied) {
  // Polarity is the only thing that matters: the answer-set inclusions
  // Q(G) ⊆ Q'(G) (relax) and Q'(G) ⊆ Q(G) (refine) hold for operators on
  // *any* pattern node, the focus included — a homomorphism of the tighter
  // query restricts to one of the looser query regardless of which node the
  // operator touched, and both delta paths re-verify their candidates
  // exactly against the child query. Ops that shift the focus candidate
  // space (focus literals, focus-incident edges) merely shrink the reuse,
  // never the correctness.
  if (applied.empty()) return DeltaClass::kFull;
  bool all_relax = true;
  bool all_refine = true;
  for (const Op& op : applied) {
    if (op.is_noop()) return DeltaClass::kFull;
    all_relax = all_relax && op.is_relax();
    all_refine = all_refine && op.is_refine();
  }
  if (all_relax) return DeltaClass::kRelax;
  if (all_refine) return DeltaClass::kRefine;
  return DeltaClass::kFull;  // mixed polarity: neither inclusion holds
}

std::vector<NodeId> ChaseContext::DeltaMatches(DeltaClass cls,
                                               const PatternQuery& q,
                                               const QueryKey& key,
                                               const EvalResult& parent) {
  // Refine: Q'(G) ⊆ Q(G), so only the parent's matches can survive. Relax:
  // Q(G) ⊆ Q'(G), so the parent's matches are child matches already and
  // only the child's focus candidates outside them can change verdict.
  // Either set is already small: the exact search (forward-checked) rejects
  // a candidate within a few states, which star views would not beat.
  const bool relax = cls == DeltaClass::kRelax;
  std::vector<NodeId> candidates =
      relax ? match::CandidateSet::Difference(
                  star_matcher_.FocusCandidates(q, key).Take(), parent.matches)
            : parent.matches;
  if (relax) c_skipped_->Inc(parent.matches.size());
  c_reverified_->Inc(candidates.size());
  // Every candidate is verified and the result sorted, so an exemplar-
  // closeness order would only cost time.
  const std::vector<std::optional<std::vector<NodeId>>> unrestricted(
      q.num_nodes());
  const uint64_t t0 = NowNs();
  std::vector<NodeId> verified = star_matcher_.VerifyCandidates(
      q, key, std::move(candidates), unrestricted, /*priority=*/nullptr);
  h_reverify_ns_->Observe(NowNs() - t0);
  return relax ? match::CandidateSet::Union(parent.matches, verified)
               : verified;
}

std::shared_ptr<EvalResult> ChaseContext::Evaluate(
    const PatternQuery& q, const QueryKey& key, OpSequence ops,
    const EvalResult* parent, const std::vector<Op>& applied) {
  const DeltaClass cls =
      parent == nullptr ? DeltaClass::kFull : ClassifyDelta(applied);
  if (cls == DeltaClass::kFull) {
    ++stats_.delta_full_fallbacks;
    c_full_fallbacks_->Inc();
  }
  return EvaluateAs(cls, q, key, std::move(ops), parent);
}

std::shared_ptr<EvalResult> ChaseContext::EvaluateAs(DeltaClass cls,
                                                     const PatternQuery& q,
                                                     const QueryKey& key,
                                                     OpSequence ops,
                                                     const EvalResult* parent) {
  WQE_SPAN("chase.evaluate");
  const uint64_t t0 = NowNs();
  RequireQuestionFocus(q);
  auto result = std::make_shared<EvalResult>();
  result->query = q;
  result->key = key;
  result->cost = SeqCost(ops);
  for (const Op& op : ops.ops()) {
    if (op.is_refine()) result->refined = true;
  }
  result->ops = std::move(ops);

  auto memo = opts_.use_memo ? match_memo_.find(key) : match_memo_.end();
  if (opts_.use_memo && memo != match_memo_.end()) {
    ++stats_.memo_hits;
    c_memo_hits_->Inc();
    result->matches = memo->second;
  } else {
    ++stats_.evaluations;
    c_evaluations_->Inc();
    // The star matcher is this context's own, so its totals are this
    // context's view traffic — copied on every exit, a deadline throw
    // included, so a solve's stats never lag the tables it paid for.
    struct ViewTally {
      const StarEvalStats& views;
      ChaseStats& stats;
      ~ViewTally() {
        stats.cache_hits = views.cache_hits;
        stats.cache_misses = views.cache_misses;
        stats.tables_built = views.tables_built;
      }
    } tally{star_matcher_.stats(), stats_};
    if (cls == DeltaClass::kFull) {
      // Verify exemplar-close candidates first (TA-style ordering, §5.2).
      std::function<double(NodeId)> priority = [this](NodeId v) {
        return rep_.ClosenessOf(v);
      };
      result->matches = star_matcher_.Evaluate(q, key, &priority).matches;
    } else {
      ++stats_.delta_hits;
      c_delta_hits_->Inc();
      result->matches = DeltaMatches(cls, q, key, *parent);
    }
    if (opts_.use_memo) match_memo_.emplace(key, result->matches);
  }

  result->rel = Classify(universe_, result->matches, rep_);
  result->cl = result->rel.AnswerCloseness(opts_.closeness.lambda);
  result->cl_plus = result->rel.UpperBound();

  result->satisfies_exemplar = SatisfiesExemplar(result->matches);
  h_evaluate_ns_->Observe(NowNs() - t0);
  return result;
}

bool ChaseContext::SatisfiesExemplar(const std::vector<NodeId>& matches) const {
  // Q(G) ⊨ ℰ: the answer set itself must satisfy every tuple pattern and
  // constraint, i.e. rep(ℰ, Q(G)) ≠ ∅. Vsim is per node, so stage 1 over
  // Q(G) ⊆ V_{u_o} is the context's sets restricted to Q(G).
  if (matches.empty()) return false;
  TupleMatchSets per_tuple(vsim_sets_.size());
  for (size_t i = 0; i < per_tuple.size(); ++i) {
    per_tuple[i] = match::CandidateSet::Intersection(matches, vsim_sets_[i]);
    // The fixpoint only removes pairs: an empty tuple set stays empty.
    if (per_tuple[i].empty()) return false;
  }
  return EnforceConstraints(g_, w_.exemplar, per_tuple);
}

std::shared_ptr<EvalResult> ChaseContext::EvaluateBaseline(PatternQuery q,
                                                           QueryKey key,
                                                           OpSequence ops,
                                                           double cost) {
  // The reformulation baseline evaluates from scratch with the plain
  // matcher: no star views, no cache, no memo, no chase counters (those are
  // this paper's contributions; the baseline of [21] has none of them).
  // cl⁺ stays 0 — the baseline never prunes by bound.
  RequireQuestionFocus(q);
  auto result = std::make_shared<EvalResult>();
  result->query = std::move(q);
  result->key = std::move(key);
  result->ops = std::move(ops);
  result->cost = cost;
  result->matches = star_matcher_.matcher().Answer(result->query);
  result->rel = Classify(universe_, result->matches, rep_);
  result->cl = result->rel.AnswerCloseness(opts_.closeness.lambda);
  // The full Lemma 2.2 procedure over the matches, independent of the
  // context's Vsim sets, so the baseline stays a check on SatisfiesExemplar.
  if (!result->matches.empty()) {
    result->satisfies_exemplar =
        ComputeRep(closeness_, w_.exemplar, result->matches).nontrivial;
  }
  return result;
}

}  // namespace wqe
