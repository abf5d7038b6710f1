#include "chase/engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "chase/report.h"
#include "obs/query_log.h"

namespace wqe::engine {

bool TopK::Offer(const EvalResult& eval) {
  if (!eval.satisfies_exemplar) return false;
  for (WhyAnswer& a : answers_) {
    if (a.fingerprint == eval.key.text) {
      // A duplicate reached more cheaply carries the better derivation
      // (AnsW); the beam variant keeps first-found derivations.
      if (update_cheaper_duplicate_ && eval.cost < a.cost - kEps) {
        a.ops = eval.ops;
        a.cost = eval.cost;
      }
      return false;
    }
  }
  WhyAnswer a;
  a.rewrite = eval.query;
  a.fingerprint = eval.key.text;
  a.ops = eval.ops;
  a.cost = eval.cost;
  a.matches = eval.matches;
  a.closeness = eval.cl;
  a.satisfies_exemplar = true;
  const double old_best = answers_.empty() ? -1e18 : answers_.front().closeness;
  answers_.push_back(std::move(a));
  const bool cost_tiebreak = cost_tiebreak_;
  std::stable_sort(answers_.begin(), answers_.end(),
                   [cost_tiebreak](const WhyAnswer& x, const WhyAnswer& y) {
                     if (x.closeness != y.closeness) {
                       return x.closeness > y.closeness;
                     }
                     return cost_tiebreak && x.cost < y.cost;
                   });
  if (answers_.size() > k_) answers_.resize(k_);
  return !answers_.empty() && answers_.front().closeness > old_best + kEps;
}

const std::vector<NodeId>& TopK::BestMatches() const {
  static const std::vector<NodeId> kEmpty;
  return answers_.empty() ? kEmpty : answers_.front().matches;
}

void SeedRoot(const EngineConfig& cfg, ChaseState& state, const Judged& root) {
  if (cfg.dedup != DedupMode::kOff) {
    state.visited.emplace(root.eval->key, root.eval->cost);
  }
  // The root is only offered: never pruned, never an AfterOffer stop, never
  // absorbed here (the frontier seeds itself) — the legacy seed sequence.
  if (cfg.accept->Offer(root, Proposal(), state) && cfg.record_trace) {
    state.trace.push_back({state.timer.ElapsedSeconds(),
                           state.topk.BestCloseness(), state.topk.BestMatches()});
  }
}

void Run(const EngineConfig& cfg, ChaseState& state) {
  const ChaseOptions& opts = *cfg.opts;
  StopPolicy default_stop;
  StopPolicy* stop = cfg.stop != nullptr ? cfg.stop : &default_stop;
  DeadlineGovernor governor(opts.deadline, cfg.deadline_stride);

  while (true) {
    // Exhaustion outranks every other stop condition, exactly as the legacy
    // `while (!frontier.empty() && ...)` heads resolved termination ties.
    if (cfg.frontier->Empty(state)) {
      state.exhausted = true;
      break;
    }
    if (cfg.frontier->AtStepCheckpoint() && *state.steps >= opts.max_steps) {
      break;
    }
    if (stop->Done(state)) break;
    if (governor.Expired()) {
      state.out_of_time = true;
      break;
    }

    Proposal prop;
    if (!cfg.frontier->Next(state, &prop)) {
      state.exhausted = true;
      break;
    }
    if (cfg.step_count == StepCount::kAtPoll) ++*state.steps;

    // Simulate one Q-Chase step: Q' = Q ⊕ o₁ ⊕ … (line 8 of AnsW).
    PatternQuery next_query = *prop.base_query;
    bool applied = true;
    for (const Op& op : prop.ops) {
      if (!Apply(op, &next_query, opts.max_bound)) {
        applied = false;
        break;
      }
    }
    if (!applied) continue;

    if (cfg.check_budget && !WithinBudget(prop.cost, opts.budget)) continue;

    // The rewrite's one render: dedup, the evaluator and the result all
    // read this key.
    prop.key = QueryKey::Of(next_query);
    ++state.fingerprint_renders;

    if (cfg.dedup != DedupMode::kOff) {
      if (cfg.dedup == DedupMode::kFirstVisit) {
        if (!state.visited.emplace(prop.key, prop.cost).second) continue;
      } else {
        // A revisit at equal or higher cost explores a subset of the cheaper
        // visit's subtree.
        auto [seen, inserted] = state.visited.try_emplace(prop.key, prop.cost);
        if (!inserted) {
          if (seen->second <= prop.cost + kEps) continue;
          seen->second = prop.cost;
        }
      }
    }

    // Bound cut: a refine-only child's cl⁺ is dominated by its parent's, so
    // when the parent bound already falls under the solver's pruning
    // threshold the child's post-evaluation ShouldPrune verdict is known
    // without evaluating. Placed after dedup so `visited` — and with it every
    // later dedup decision — does not depend on which children were cut.
    if (prop.base_eval != nullptr && !prop.ops.empty()) {
      bool refine_only = true;
      for (const Op& op : prop.ops) refine_only = refine_only && op.is_refine();
      if (refine_only &&
          cfg.accept->PruneByBound(prop.base_eval->cl_plus, prop, state)) {
        if (cfg.step_count == StepCount::kAtEvaluate) ++*state.steps;
        ++*state.pruned;
        ++state.bound_cuts;
        continue;
      }
    }

    OpSequence ops;
    if (prop.base_ops != nullptr) ops = *prop.base_ops;
    for (const Op& op : prop.ops) ops.Append(op);

    if (cfg.step_count == StepCount::kAtEvaluate) ++*state.steps;

    Judged judged;
    try {
      judged = cfg.evaluate(std::move(next_query), std::move(ops), prop);
    } catch (const DeadlineExceeded&) {
      // The deadline fired inside star matching; stop with the incumbents
      // found so far (the anytime contract).
      state.out_of_time = true;
      break;
    }

    if (cfg.accept->ShouldPrune(judged, prop, state)) {
      ++*state.pruned;
      continue;
    }

    if (cfg.accept->Offer(judged, prop, state) && cfg.record_trace) {
      state.trace.push_back({state.timer.ElapsedSeconds(),
                             state.topk.BestCloseness(),
                             state.topk.BestMatches()});
    }
    if (stop->AfterOffer(judged, prop, state)) break;
    cfg.frontier->Absorb(std::move(judged), prop, state);
  }

  // One final clock poll so Termination() can trust `out_of_time` even when
  // the loop ended between governor strides (custom StopPolicies never read
  // the Deadline themselves).
  if (!state.out_of_time && opts.deadline.Expired()) state.out_of_time = true;
}

WhyAnswer MakeAnswer(const EvalResult& eval) {
  WhyAnswer a;
  a.rewrite = eval.query;
  a.fingerprint = eval.key.text;
  a.ops = eval.ops;
  a.cost = eval.cost;
  a.matches = eval.matches;
  a.closeness = eval.cl;
  a.satisfies_exemplar = eval.satisfies_exemplar;
  return a;
}

void Finalize(ChaseContext& ctx, ChaseState& state, TerminationReason reason,
              ChaseResult* result) {
  if (result->answers.empty()) {
    // Always report the original query as the (non-satisfying) fallback so
    // callers can measure its closeness.
    result->answers.push_back(MakeAnswer(*ctx.root()));
  }
  result->trace = std::move(state.trace);
  ctx.stats().bound_cuts += state.bound_cuts;
  ctx.stats().fingerprint_renders += state.fingerprint_renders;
  ctx.stats().elapsed_seconds = state.timer.ElapsedSeconds();
  ctx.stats().termination = reason;
  result->stats = ctx.stats();
}

EvalFn ContextEval(ChaseContext& ctx) {
  return [&ctx](PatternQuery&& query, OpSequence ops, const Proposal& prop) {
    Judged j;
    j.eval = ctx.Evaluate(query, prop.key, std::move(ops), prop.base_eval,
                          prop.ops);
    return j;
  };
}

void AccumulateStats(ChaseStats& total, const ChaseStats& delta) {
  total.steps += delta.steps;
  total.evaluations += delta.evaluations;
  total.memo_hits += delta.memo_hits;
  total.ops_generated += delta.ops_generated;
  total.pruned += delta.pruned;
  total.bound_cuts += delta.bound_cuts;
  total.fingerprint_renders += delta.fingerprint_renders;
  total.delta_hits += delta.delta_hits;
  total.delta_full_fallbacks += delta.delta_full_fallbacks;
  total.delta_refine += delta.delta_refine;
  total.delta_relax += delta.delta_relax;
  total.delta_focus_literal += delta.delta_focus_literal;
  total.delta_literal_family += delta.delta_literal_family;
  total.cache_hits += delta.cache_hits;
  total.cache_misses += delta.cache_misses;
  total.tables_built += delta.tables_built;
  total.store_hits += delta.store_hits;
  total.store_misses += delta.store_misses;
  total.elapsed_seconds += delta.elapsed_seconds;
  total.termination = delta.termination;  // latest run's reason
  obs::MergePhases(total.phases, delta.phases);
}

void BestFirstFrontier::Push(Judged judged) {
  auto node = std::make_shared<Node>();
  node->chase.eval = std::move(judged.eval);
  node->detail = std::move(judged.detail);
  heap_.push(std::move(node));
}

bool BestFirstFrontier::Next(ChaseState& state, Proposal* out) {
  while (!heap_.empty()) {
    Node& top = *heap_.top();  // peek (line 5 of AnsW)
    if (!top.chase.ops_generated) ops_->Expand(top, state);
    const ScoredOp* scored = top.chase.Poll();  // NextOp (line 6)
    if (scored == nullptr) {
      heap_.pop();  // backtrack (line 7)
      continue;
    }
    out->base_query = &top.chase.eval->query;
    out->base_ops = &top.chase.eval->ops;
    out->base_eval = top.chase.eval.get();
    out->ops.assign(1, scored->op);
    out->cost = top.chase.eval->cost + scored->cost;
    return true;
  }
  return false;
}

void BeamFrontier::AbsorbNode(Judged judged) {
  auto node = std::make_shared<Node>();
  node->chase.eval = std::move(judged.eval);
  node->detail = std::move(judged.detail);
  children_.push_back(std::move(node));
}

bool BeamFrontier::Next(ChaseState& state, Proposal* out) {
  while (true) {
    if (cur_ >= front_.size()) {
      // Beam eviction: keep the most promising children. Rank by the cl⁺
      // upper bound first — greedy eviction on raw closeness alone would
      // discard relax-phase nodes (which trade immediate closeness for
      // reachable relevant candidates) in favor of myopic refinements.
      std::stable_sort(children_.begin(), children_.end(),
                       [](const std::shared_ptr<Node>& a,
                          const std::shared_ptr<Node>& b) {
                         if (a->chase.eval->cl_plus != b->chase.eval->cl_plus) {
                           return a->chase.eval->cl_plus >
                                  b->chase.eval->cl_plus;
                         }
                         return a->chase.eval->cl > b->chase.eval->cl;
                       });
      if (children_.size() > beam_) children_.resize(beam_);
      front_ = std::move(children_);
      children_.clear();
      cur_ = 0;
      if (front_.empty()) return false;
      ops_->BeginLevel(state);
    }
    Node& node = *front_[cur_];
    if (!node.chase.ops_generated) ops_->Expand(node, state);
    const ScoredOp* scored = node.chase.Poll();
    if (scored == nullptr) {
      ++cur_;
      continue;
    }
    out->base_query = &node.chase.eval->query;
    out->base_ops = &node.chase.eval->ops;
    out->base_eval = node.chase.eval.get();
    out->ops.assign(1, scored->op);
    out->cost = node.chase.eval->cost + scored->cost;
    return true;
  }
}

bool ListFrontier::Next(ChaseState&, Proposal* out) {
  if (next_ >= candidates_.size()) return false;
  Candidate& c = candidates_[next_++];
  out->base_query = base_query_;
  out->base_ops = nullptr;
  out->base_eval = base_eval_;
  out->ops = c.ops;
  out->cost = c.cost;
  out->tag = c.tag;
  return true;
}

namespace {

/// Arms the context's star matcher with the run's deadline for exactly one
/// solver dispatch. Scoped so the matcher is disarmed even when a
/// DeadlineExceeded (or anything else) unwinds through the dispatch — a
/// context is reused across questions and must never carry a dangling
/// deadline.
class ScopedDeadlineArm {
 public:
  ScopedDeadlineArm(StarMatcher& m, const Deadline* d) : m_(m) {
    m_.set_deadline(d);
  }
  ~ScopedDeadlineArm() { m_.set_deadline(nullptr); }

  ScopedDeadlineArm(const ScopedDeadlineArm&) = delete;
  ScopedDeadlineArm& operator=(const ScopedDeadlineArm&) = delete;

 private:
  StarMatcher& m_;
};

const char* SolveSpanName(Algorithm algo) {
  switch (algo) {
    case Algorithm::kAnsW:
      return "solve.AnsW";
    case Algorithm::kAnsWE:
      return "solve.AnsWE";
    case Algorithm::kAnsHeu:
      return "solve.AnsHeu";
    case Algorithm::kFMAnsW:
      return "solve.FMAnsW";
    case Algorithm::kApxWhyM:
      return "solve.ApxWhyM";
  }
  return "solve.unknown";
}

ChaseResult Dispatch(ChaseContext& ctx, Algorithm algo) {
  switch (algo) {
    case Algorithm::kAnsW:
      return internal::RunAnsW(ctx);
    case Algorithm::kAnsWE:
      return internal::RunAnsWE(ctx);
    case Algorithm::kAnsHeu:
      return internal::RunAnsHeu(ctx);
    case Algorithm::kFMAnsW:
      return internal::RunFMAnsW(ctx);
    case Algorithm::kApxWhyM:
      return internal::RunApxWhyM(ctx);
  }
  ChaseResult r;
  r.status = Status::InvalidArgument("unknown Algorithm value");
  return r;
}

}  // namespace

ChaseResult RunAlgorithm(ChaseContext& ctx, Algorithm algo,
                         obs::QueryLogRecord* report) {
  obs::Observability& o = ctx.obs();
  // Install the context's tracer so WQE_SPAN sites below the solver (star
  // matching, operator generation, evaluation) record into it.
  obs::TracerScope tracer_scope(&o.tracer);

  // The registry and tracer are shared across questions (sessions, benches);
  // snapshot so this run's contribution can be carved out afterwards. The
  // phases are carved from the context's baseline, taken before its root
  // evaluation, so they cover the evaluations its ChaseStats count.
  const ChaseStats before = ctx.stats();

  ChaseResult result;
  {
    obs::ScopedSpan span(&o.tracer, SolveSpanName(algo));
    ScopedDeadlineArm arm(ctx.star_matcher(), &ctx.options().deadline);
    try {
      result = Dispatch(ctx, algo);
    } catch (const DeadlineExceeded&) {
      // Backstop for evaluation paths without a solver-level handler: honor
      // the anytime contract with the root as the (possibly non-satisfying)
      // fallback answer instead of propagating out of Execute().
      result = ChaseResult();
      result.cl_star = ctx.cl_star();
      result.answers.push_back(MakeAnswer(*ctx.root()));
      ctx.stats().termination = TerminationReason::kDeadline;
      result.stats = ctx.stats();
    }
  }

  result.stats.phases =
      obs::DiffPhases(ctx.phase_baseline(), o.tracer.Phases());

  // Mirror the solver-loop counters into the metric registry. The per-call
  // metrics (evaluations, memo hits, evaluate latency) are incremented live
  // by ChaseContext::Evaluate; these loop-level tallies are only known to the
  // solver's ChaseStats, so the engine bridges them once per run.
  const ChaseStats& after = result.stats;
  o.metrics.counter("chase.steps").Inc(after.steps - before.steps);
  o.metrics.counter("chase.pruned").Inc(after.pruned - before.pruned);
  o.metrics.counter("chase.bound_cuts").Inc(after.bound_cuts - before.bound_cuts);
  o.metrics.counter("chase.fingerprint_renders")
      .Inc(after.fingerprint_renders - before.fingerprint_renders);
  o.metrics.counter("chase.ops_generated")
      .Inc(after.ops_generated - before.ops_generated);
  o.metrics.counter("solve.runs").Inc();
  o.metrics.histogram("solve.latency_ns")
      .Observe(static_cast<uint64_t>(after.elapsed_seconds * 1e9));

  // Provenance: one record per solve, built only when something reads it.
  // Appending is best-effort — a full disk must not fail the query — but
  // surfaced as a counter so it is not silent.
  obs::QueryLog* log = ctx.options().query_log;
  if (log != nullptr || report != nullptr) {
    obs::QueryLogRecord rec =
        ChaseReport::BuildQueryLogRecord(ctx, result, algo);
    if (log != nullptr && !log->Append(rec)) {
      o.metrics.counter("query_log.drops").Inc();
    }
    if (report != nullptr) *report = std::move(rec);
  }
  return result;
}

}  // namespace wqe::engine
