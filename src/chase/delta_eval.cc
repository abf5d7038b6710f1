#include "chase/delta_eval.h"

#include <chrono>
#include <functional>
#include <utility>

#include "match/candidate_set.h"

namespace wqe {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

DeltaEvaluator::DeltaEvaluator(ChaseContext& ctx) : ctx_(ctx) {
  obs::Observability& o = ctx.obs();
  c_delta_hits_ = &o.metrics.counter("delta_eval.hits");
  c_full_fallbacks_ = &o.metrics.counter("delta_eval.full_fallbacks");
  c_reuse_hits_ = &o.metrics.counter("delta_eval.reuse_hits");
  c_reverified_ = &o.metrics.counter("delta_eval.reverified");
  c_skipped_ = &o.metrics.counter("delta_eval.skipped");
  h_reverify_ns_ = &o.metrics.histogram("delta_eval.reverify_ns");
}

DeltaEvaluator::DeltaClass DeltaEvaluator::ClassifyDelta(
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

std::vector<NodeId> DeltaEvaluator::RelaxDelta(
    const PatternQuery& q, const QueryKey& key, const EvalResult& parent,
    std::shared_ptr<const StarEvalState>* state) {
  StarMatcher& sm = ctx_.star_matcher_;
  // Relaxation may enlarge the candidate space, so every star table is
  // needed at full strength: reuse unchanged ones, materialize the rest.
  const uint64_t reuse_before = sm.stats().reuse_hits;
  auto st = sm.ResolveTables(q, key, parent.star_state.get(),
                             /*materialize_missing=*/true);
  c_reuse_hits_->Inc(sm.stats().reuse_hits - reuse_before);
  const auto allowed = sm.AllowedSets(q, *st);

  std::vector<NodeId> candidates;
  if (allowed[q.focus()].has_value()) {
    candidates = *allowed[q.focus()];
  } else {
    candidates = sm.FocusCandidates(q, key).Take();
  }
  // Q(G) ⊆ Q'(G): the parent's matches are child matches already — only
  // candidates outside them can change verdict.
  std::vector<NodeId> to_verify =
      match::CandidateSet::Difference(candidates, parent.matches);
  c_skipped_->Inc(parent.matches.size());
  c_reverified_->Inc(to_verify.size());

  std::function<double(NodeId)> priority = [this](NodeId v) {
    return ctx_.rep_.ClosenessOf(v);
  };
  const uint64_t t0 = NowNs();
  std::vector<NodeId> verified =
      sm.VerifyCandidates(q, key, std::move(to_verify), allowed, &priority);
  h_reverify_ns_->Observe(NowNs() - t0);

  *state = std::move(st);
  return match::CandidateSet::Union(parent.matches, verified);
}

std::vector<NodeId> DeltaEvaluator::RefineDelta(
    const PatternQuery& q, const QueryKey& key, const EvalResult& parent,
    std::shared_ptr<const StarEvalState>* state) {
  StarMatcher& sm = ctx_.star_matcher_;
  // Q'(G) ⊆ Q(G): only the parent's matches can survive, and verification
  // is complete without any table — so take tables opportunistically (reuse
  // or a cache peek) and never pay a materialization. Absent tables merely
  // filter less before the exact checks.
  const uint64_t reuse_before = sm.stats().reuse_hits;
  auto st = sm.ResolveTables(q, key, parent.star_state.get(),
                             /*materialize_missing=*/false);
  c_reuse_hits_->Inc(sm.stats().reuse_hits - reuse_before);
  const auto allowed = sm.AllowedSets(q, *st);

  // Pre-filter: a child match must occur in the focus position of every
  // child star table we do hold.
  std::vector<NodeId> candidates;
  candidates.reserve(parent.matches.size());
  for (NodeId v : parent.matches) {
    bool viable = true;
    for (const auto& table : st->tables) {
      if (table != nullptr && !table->ContainsFocusOccurrence(v)) {
        viable = false;
        break;
      }
    }
    if (viable) candidates.push_back(v);
  }
  c_skipped_->Inc(parent.matches.size() - candidates.size());
  c_reverified_->Inc(candidates.size());

  std::function<double(NodeId)> priority = [this](NodeId v) {
    return ctx_.rep_.ClosenessOf(v);
  };
  const uint64_t t0 = NowNs();
  std::vector<NodeId> verified =
      sm.VerifyCandidates(q, key, std::move(candidates), allowed, &priority);
  h_reverify_ns_->Observe(NowNs() - t0);

  *state = std::move(st);
  return verified;
}

std::shared_ptr<EvalResult> DeltaEvaluator::Evaluate(
    const PatternQuery& q, const QueryKey& key, OpSequence ops,
    const EvalResult* parent, const std::vector<Op>& applied) {
  const DeltaClass cls =
      parent == nullptr ? DeltaClass::kFull : ClassifyDelta(applied);
  if (cls == DeltaClass::kFull) {
    c_full_fallbacks_->Inc();
    return ctx_.Evaluate(q, key, std::move(ops));
  }

  // From here on this is ChaseContext::Evaluate with only the match-set
  // computation swapped out — memo, stats, classification, and latency
  // accounting must stay in lockstep with the full path.
  WQE_SPAN("chase.evaluate");
  const uint64_t t0 = NowNs();
  auto result = std::make_shared<EvalResult>();
  result->query = q;
  result->key = key;
  result->cost = ctx_.SeqCost(ops);
  for (const Op& op : ops.ops()) {
    if (op.is_refine()) result->refined = true;
  }
  result->ops = std::move(ops);

  auto memo = ctx_.opts_.use_memo ? ctx_.match_memo_.find(key)
                                  : ctx_.match_memo_.end();
  if (ctx_.opts_.use_memo && memo != ctx_.match_memo_.end()) {
    ++ctx_.stats_.memo_hits;
    ctx_.c_memo_hits_->Inc();
    result->matches = memo->second;
  } else {
    ++ctx_.stats_.evaluations;
    ctx_.c_evaluations_->Inc();
    c_delta_hits_->Inc();
    std::shared_ptr<const StarEvalState> state;
    result->matches = cls == DeltaClass::kRelax
                          ? RelaxDelta(q, key, *parent, &state)
                          : RefineDelta(q, key, *parent, &state);
    result->star_state = std::move(state);
    if (ctx_.opts_.use_memo) ctx_.match_memo_.emplace(key, result->matches);
  }

  result->rel = Classify(ctx_.universe_, result->matches, ctx_.rep_);
  result->cl = result->rel.AnswerCloseness(ctx_.opts_.closeness.lambda);
  result->cl_plus = result->rel.UpperBound();
  result->satisfies_exemplar = ctx_.SatisfiesExemplar(result->matches);
  ctx_.h_evaluate_ns_->Observe(NowNs() - t0);
  return result;
}

}  // namespace wqe
