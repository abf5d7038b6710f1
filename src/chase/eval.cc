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

/// Projection-memo cells per graph element (node or edge): one context's
/// literal families may hold 16 × (|V| + |E|) 4-byte cells.
constexpr size_t kProjectionCellsPerElement = 16;
/// Cells charged per family entry beyond its key (map node, bucket, the
/// per-node vector header).
constexpr size_t kFamilyEntryCells = 16;
/// States one parent match's projection search may visit before that match
/// is left to verification.
constexpr uint64_t kProjectionStatesPerMatch = 4096;

constexpr const char* kDeltaRuleNames[] = {"refine", "relax", "focus_literal",
                                           "literal_family"};

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
  for (size_t r = 0; r < kNumDeltaRules; ++r) {
    const std::string prefix =
        std::string("delta_eval.") + kDeltaRuleNames[r] + ".";
    c_rules_[r] = {&obs_->metrics.counter(prefix + "children"),
                   &obs_->metrics.counter(prefix + "candidates"),
                   &obs_->metrics.counter(prefix + "survivors"),
                   &obs_->metrics.counter(prefix + "ball_fills")};
  }
  c_projection_builds_ =
      &obs_->metrics.counter("delta_eval.projection_builds");
  c_projection_fallbacks_ =
      &obs_->metrics.counter("delta_eval.projection_fallbacks");
  family_budget_ =
      kProjectionCellsPerElement * (g.num_nodes() + g.num_edges());
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

ChaseContext::DeltaPlan ChaseContext::ClassifyDelta(
    const PatternQuery& q, const std::vector<Op>& applied) {
  // Polarity decides between the general rules: the answer-set inclusions
  // Q(G) ⊆ Q'(G) (relax) and Q'(G) ⊆ Q(G) (refine) hold for operators on
  // *any* pattern node, the focus included — a homomorphism of the tighter
  // query restricts to one of the looser query regardless of which node the
  // operator touched. A refine payload that only tightens the filter of one
  // node keeps every valuation of the parent that the new filter admits, so
  // the literal rules decide it from the parent's valuations.
  if (applied.empty()) return {};
  bool all_relax = true;
  bool all_refine = true;
  bool one_node_literals = true;
  const QNodeId u = applied.front().u;
  for (const Op& op : applied) {
    if (op.is_noop()) return {};
    all_relax = all_relax && op.is_relax();
    all_refine = all_refine && op.is_refine();
    one_node_literals = one_node_literals && op.u == u &&
                        (op.kind == OpKind::kAddL || op.kind == OpKind::kRfL);
  }
  if (all_relax) return {DeltaRule::kRelax, kNoQNode};
  if (!all_refine) return {};  // mixed polarity: neither inclusion holds
  if (one_node_literals && u < q.num_nodes()) {
    if (u == q.focus()) return {DeltaRule::kFocusLiteral, u};
    // An inactive node constrains nothing and has no plan step to project.
    if (q.ActiveMask()[u]) return {DeltaRule::kLiteralFamily, u};
  }
  return {DeltaRule::kRefine, kNoQNode};
}

std::shared_ptr<const NodeProjection> ChaseContext::FamilyProjection(
    const EvalResult& parent, QNodeId u) {
  auto [it, inserted] = families_.try_emplace(parent.key);
  if (inserted) family_cells_ += kFamilyEntryCells + parent.key.text.size() / 4;
  std::vector<Family>& members = it->second;
  if (members.size() <= u) members.resize(u + 1);
  Family& family = members[u];
  if (family.projection != nullptr) return family.projection;
  // The first child of a family may be its only one: the refine rule
  // decides it without paying for a projection.
  if (family.children++ == 0 || family.oversized) return nullptr;

  auto projection = std::make_shared<const NodeProjection>(
      star_matcher_.ProjectNode(parent.query, parent.key, parent.matches, u,
                                kProjectionStatesPerMatch));
  c_projection_builds_->Inc();
  c_projection_fallbacks_->Inc(projection->fallbacks);
  const size_t cells = projection->Cells();
  if (cells > family_budget_) {
    family.oversized = true;  // decide this child with it; keep nothing
    return projection;
  }
  if (family_cells_ + cells <= family_budget_) {
    family.projection = projection;
  } else {
    // Over budget: drop every family (the projections are recomputable),
    // then keep this one.
    const uint32_t children = family.children;
    families_.clear();
    std::vector<Family>& fresh = families_[parent.key];
    fresh.resize(u + 1);
    fresh[u].children = children;
    fresh[u].projection = projection;
    family_cells_ = kFamilyEntryCells + parent.key.text.size() / 4;
  }
  family_cells_ += cells;
  return projection;
}

std::vector<NodeId> ChaseContext::DeltaMatches(DeltaPlan delta,
                                               const PatternQuery& q,
                                               const QueryKey& key,
                                               const EvalResult& parent) {
  const size_t rule = static_cast<size_t>(delta.rule);
  static_assert(static_cast<size_t>(DeltaRule::kFull) == kNumDeltaRules);
  uint64_t ChaseStats::*const children[kNumDeltaRules] = {
      &ChaseStats::delta_refine, &ChaseStats::delta_relax,
      &ChaseStats::delta_focus_literal, &ChaseStats::delta_literal_family};
  ++(stats_.*children[rule]);
  c_rules_[rule].children->Inc();
  // Workers' stats merge into the matcher's when each sharded call ends.
  const MatchStats& match_stats = star_matcher_.matcher().stats();
  const uint64_t fills_before = match_stats.ball_fills;

  // `keep`: child matches decided without a search; `verify`: candidates
  // the exact matcher decides against q. Either set is already small: the
  // exact search (forward-checked) rejects a candidate within a few states,
  // which star views would not beat.
  std::vector<NodeId> keep;
  std::vector<NodeId> verify;
  size_t candidates = parent.matches.size();
  switch (delta.rule) {
    case DeltaRule::kRelax:
      // Q(G) ⊆ Q'(G): the parent's matches are child matches already, and
      // only the child's focus candidates outside them can change verdict.
      keep = parent.matches;
      verify = match::CandidateSet::Difference(
          star_matcher_.FocusCandidates(q, key).Take(), parent.matches);
      candidates = verify.size();
      c_skipped_->Inc(parent.matches.size());
      break;
    case DeltaRule::kFocusLiteral: {
      // The parent's valuations of a kept match are the child's: only the
      // focus filter changed, and it admits the match.
      const match::FilterPlan focus =
          match::FilterPlan::Compile(q.node(delta.node));
      for (const NodeId v : parent.matches) {
        if (focus.AdmitsAttrs(g_.view(), v)) keep.push_back(v);
      }
      break;
    }
    case DeltaRule::kLiteralFamily:
      if (const auto projection = FamilyProjection(parent, delta.node)) {
        projection->Decide(g_.view(),
                           match::FilterPlan::Compile(q.node(delta.node)),
                           parent.matches, &keep, &verify);
        break;
      }
      verify = parent.matches;  // the family's first child: refine rule
      break;
    case DeltaRule::kRefine:
    case DeltaRule::kFull:
      // Q'(G) ⊆ Q(G): only the parent's matches can survive.
      verify = parent.matches;
      break;
  }
  c_reverified_->Inc(verify.size());
  std::vector<NodeId> verified;
  if (!verify.empty()) {
    // Every candidate is verified and the result sorted, so an exemplar-
    // closeness order would only cost time.
    const std::vector<std::optional<std::vector<NodeId>>> unrestricted(
        q.num_nodes());
    const uint64_t t0 = NowNs();
    verified = star_matcher_.VerifyCandidates(q, key, std::move(verify),
                                              unrestricted,
                                              /*priority=*/nullptr);
    h_reverify_ns_->Observe(NowNs() - t0);
  }
  std::vector<NodeId> matches =
      keep.empty() ? std::move(verified)
                   : match::CandidateSet::Union(keep, verified);
  c_rules_[rule].candidates->Inc(candidates);
  c_rules_[rule].survivors->Inc(delta.rule == DeltaRule::kRelax
                                    ? matches.size() - parent.matches.size()
                                    : matches.size());
  c_rules_[rule].ball_fills->Inc(match_stats.ball_fills - fills_before);
  return matches;
}

std::shared_ptr<EvalResult> ChaseContext::Evaluate(
    const PatternQuery& q, const QueryKey& key, OpSequence ops,
    const EvalResult* parent, const std::vector<Op>& applied) {
  const DeltaPlan delta =
      parent == nullptr ? DeltaPlan() : ClassifyDelta(q, applied);
  if (delta.rule == DeltaRule::kFull) {
    ++stats_.delta_full_fallbacks;
    c_full_fallbacks_->Inc();
  }
  return EvaluateAs(delta, q, key, std::move(ops), parent);
}

std::shared_ptr<EvalResult> ChaseContext::EvaluateAs(DeltaPlan delta,
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
    if (delta.rule == DeltaRule::kFull) {
      // Verify exemplar-close candidates first (TA-style ordering, §5.2).
      std::function<double(NodeId)> priority = [this](NodeId v) {
        return rep_.ClosenessOf(v);
      };
      result->matches = star_matcher_.Evaluate(q, key, &priority).matches;
    } else {
      ++stats_.delta_hits;
      c_delta_hits_->Inc();
      result->matches = DeltaMatches(delta, q, key, *parent);
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
  result->matches =
      star_matcher_.matcher().Answer(result->query, opts_.num_threads);
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
