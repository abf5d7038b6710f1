#include "match/star_matcher.h"

#include <algorithm>
#include <memory>

#include "obs/observability.h"

namespace wqe {

namespace {

// Sorted-vector intersection into `into` (which may start empty = universe).
void IntersectInto(std::optional<std::vector<NodeId>>& into,
                   const std::vector<NodeId>& other) {
  if (!into.has_value()) {
    into = other;
    return;
  }
  *into = match::CandidateSet::Intersection(*into, other);
}

}  // namespace

StarMatcher::StarMatcher(const Graph& g, DistanceIndex* dist, ViewCache* cache)
    : matcher_(g, dist), materializer_(g), cache_(cache) {
  // Table builds seed and filter center candidates; fold their funnel
  // accounting into the matcher's stats so one snapshot covers both paths.
  materializer_.set_stats(&matcher_.stats());
}

void StarMatcher::set_num_threads(size_t n) {
  num_threads_ = n;
  materializer_.set_num_threads(n);
}

void StarMatcher::set_use_pipeline(bool on) {
  use_pipeline_ = on;
  matcher_.set_use_pipeline(on);
  materializer_.set_use_pipeline(on);
}

void StarMatcher::set_deadline(const Deadline* d) {
  deadline_ = d;
  materializer_.set_deadline(d);
}

void StarMatcher::set_observability(obs::Observability* o) {
  if (o == nullptr) {
    c_tables_built_ = c_candidates_ = c_verified_ = nullptr;
    c_plan_compiles_ = c_plan_hits_ = nullptr;
    c_stage_seeded_ = c_stage_filtered_ = c_stage_verified_ = nullptr;
    c_ball_hits_ = c_ball_fills_ = c_forward_prunes_ = nullptr;
    return;
  }
  c_tables_built_ = &o->metrics.counter("match.tables_built");
  c_candidates_ = &o->metrics.counter("match.focus_candidates");
  c_verified_ = &o->metrics.counter("match.focus_verified");
  c_plan_compiles_ = &o->metrics.counter("match.plan.compiles");
  c_plan_hits_ = &o->metrics.counter("match.plan.hits");
  c_stage_seeded_ = &o->metrics.counter("match.stage.seeded");
  c_stage_filtered_ = &o->metrics.counter("match.stage.filtered");
  c_stage_verified_ = &o->metrics.counter("match.stage.verified");
  c_ball_hits_ = &o->metrics.counter("match.ball.hits");
  c_ball_fills_ = &o->metrics.counter("match.ball.fills");
  c_forward_prunes_ = &o->metrics.counter("match.forward_prunes");
  // Registry deltas start from the matcher's current totals so re-attaching
  // a scope never replays activity observed by a previous one.
  plan_builds_seen_ = matcher_.stats().plan_builds;
  plan_hits_seen_ = matcher_.stats().plan_cache_hits;
  stage_seeded_seen_ = matcher_.stats().candidates_seeded;
  stage_filtered_seen_ = matcher_.stats().candidates_filtered;
  ball_hits_seen_ = matcher_.stats().ball_hits;
  ball_fills_seen_ = matcher_.stats().ball_fills;
  forward_prunes_seen_ = matcher_.stats().forward_prunes;
}

void StarMatcher::FlushPlanCounters() {
  if (c_plan_compiles_ == nullptr) return;
  const MatchStats& s = matcher_.stats();
  c_plan_compiles_->Inc(s.plan_builds - plan_builds_seen_);
  c_plan_hits_->Inc(s.plan_cache_hits - plan_hits_seen_);
  c_stage_seeded_->Inc(s.candidates_seeded - stage_seeded_seen_);
  c_stage_filtered_->Inc(s.candidates_filtered - stage_filtered_seen_);
  c_ball_hits_->Inc(s.ball_hits - ball_hits_seen_);
  c_ball_fills_->Inc(s.ball_fills - ball_fills_seen_);
  c_forward_prunes_->Inc(s.forward_prunes - forward_prunes_seen_);
  plan_builds_seen_ = s.plan_builds;
  plan_hits_seen_ = s.plan_cache_hits;
  stage_seeded_seen_ = s.candidates_seeded;
  stage_filtered_seen_ = s.candidates_filtered;
  ball_hits_seen_ = s.ball_hits;
  ball_fills_seen_ = s.ball_fills;
  forward_prunes_seen_ = s.forward_prunes;
}

match::CandidateSet StarMatcher::FocusCandidates(const PatternQuery& q,
                                                 const QueryKey& key) {
  match::CandidateSet set =
      match::CandidateSet::FromSorted(matcher_.FocusCandidates(q, key));
  FlushPlanCounters();
  return set;
}

std::shared_ptr<const StarEvalState> StarMatcher::ResolveTables(
    const PatternQuery& q, const QueryKey& key, const StarEvalState* reuse,
    bool materialize_missing) {
  WQE_SPAN("match.stars");
  auto state = std::make_shared<StarEvalState>();
  state->stars = DecomposeStars(q);
  state->signatures.reserve(state->stars.size());
  state->tables.reserve(state->stars.size());
  // Resolved lazily on the first table build: the rewrite's compiled filters
  // from the plan memo, shared by every star materialized this evaluation.
  // The reference stays valid for the whole loop — q is fixed here, so later
  // PlanFor calls are hits against the same memo entry.
  const match::QueryFilterPlans* plans = nullptr;
  for (const StarQuery& star : state->stars) {
    // Between stars; the materializer checks inside its row loop too.
    if (deadline_ != nullptr) deadline_->ThrowIfExpired();
    std::string signature = star.Signature(q);
    std::shared_ptr<const StarTable> table;
    // A reused table under the same signature is the table the cache
    // would share anyway — take it without cache traffic.
    if (reuse != nullptr) {
      for (size_t j = 0; j < reuse->signatures.size(); ++j) {
        if (reuse->tables[j] != nullptr && reuse->signatures[j] == signature) {
          table = reuse->tables[j];
          break;
        }
      }
    }
    if (table == nullptr && cache_ != nullptr) {
      if (materialize_missing) {
        table = cache_->Get(signature);
        ++(table != nullptr ? stats_.cache_hits : stats_.cache_misses);
      } else {
        // Opportunistic probe: absence is not a miss when we would not
        // build the table anyway.
        table = cache_->Peek(signature);
      }
    }
    if (table == nullptr && materialize_missing) {
      if (use_pipeline_ && plans == nullptr) {
        plans = &matcher_.PlanFor(q, key).filters;
      }
      table = materializer_.Materialize(q, star, plans);
      ++stats_.tables_built;
      if (c_tables_built_ != nullptr) c_tables_built_->Inc();
      if (cache_ != nullptr) cache_->Put(signature, table);
    }
    state->signatures.push_back(std::move(signature));
    state->tables.push_back(std::move(table));
  }
  return state;
}

std::vector<std::optional<std::vector<NodeId>>> StarMatcher::AllowedSets(
    const PatternQuery& q, const StarEvalState& state) const {
  // Per-node pruned candidate sets: intersection of occurrences across all
  // stars that constrain the node. Node ids come from the *current* query's
  // stars (state.stars[i]); the cached table only supplies role-addressed
  // data — its own star() may stem from a different rewrite.
  std::vector<std::optional<std::vector<NodeId>>> allowed_sets(q.num_nodes());
  for (size_t i = 0; i < state.tables.size(); ++i) {
    if (state.tables[i] == nullptr) continue;
    const StarQuery& star = state.stars[i];
    const StarTable& table = *state.tables[i];
    IntersectInto(allowed_sets[star.center], table.center_occurrences());
    for (size_t s = 0; s < star.spokes.size(); ++s) {
      IntersectInto(allowed_sets[star.spokes[s].other],
                    table.spoke_occurrences(s));
    }
    IntersectInto(allowed_sets[q.focus()], table.focus_occurrences());
  }
  return allowed_sets;
}

std::vector<NodeId> StarMatcher::VerifyCandidates(
    const PatternQuery& q, const QueryKey& key, std::vector<NodeId> candidates,
    const std::vector<std::optional<std::vector<NodeId>>>& allowed_sets,
    const std::function<double(NodeId)>* priority) {
  std::vector<const std::vector<NodeId>*> allowed(q.num_nodes(), nullptr);
  for (QNodeId u = 0; u < q.num_nodes(); ++u) {
    if (allowed_sets[u].has_value()) allowed[u] = &*allowed_sets[u];
  }

  WQE_SPAN("match.verify");
  if (priority != nullptr) {
    // One priority lookup per candidate, then a stable sort on the keys:
    // the same order as comparing priority(a) > priority(b) pairwise.
    std::vector<std::pair<double, NodeId>> keyed;
    keyed.reserve(candidates.size());
    for (NodeId v : candidates) keyed.emplace_back((*priority)(v), v);
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    for (size_t i = 0; i < keyed.size(); ++i) candidates[i] = keyed[i].second;
  }

  // One plan resolution for the whole batch: every candidate below probes
  // the same rewrite, so the per-candidate cost is the match check itself,
  // not a repeated memo probe.
  const Matcher::MatchPlan& plan = matcher_.PlanFor(q, key);
  // Each verification is a full (bounded) match check, so an armed deadline
  // is consulted every kDeadlineCheckStride candidates — the overshoot is a
  // stride of match checks, not the whole candidate list. Matches found
  // before the throw are abandoned with the evaluation (anytime callers keep
  // their previous best instead of a partial, order-dependent answer set).
  std::vector<uint8_t> is_match(candidates.size(), 0);
  matcher_.ShardProbes(num_threads_, candidates.size(), /*grain=*/4,
                       [&](Matcher& m, size_t i) {
                         MaybeThrowIfExpired(deadline_, i);
                         is_match[i] = m.IsMatchRestricted(
                             q, plan, candidates[i], allowed);
                       });
  std::vector<NodeId> matches;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (is_match[i]) matches.push_back(candidates[i]);
  }
  if (c_verified_ != nullptr) c_verified_->Inc(candidates.size());
  std::sort(matches.begin(), matches.end());
  if (c_stage_verified_ != nullptr) c_stage_verified_->Inc(matches.size());
  FlushPlanCounters();
  return matches;
}

StarMatcher::Evaluation StarMatcher::Evaluate(
    const PatternQuery& q, const QueryKey& key,
    const std::function<double(NodeId)>* priority) {
  const auto allowed_sets =
      AllowedSets(q, *ResolveTables(q, key, /*reuse=*/nullptr,
                                    /*materialize_missing=*/true));

  std::vector<NodeId> candidates;
  if (allowed_sets[q.focus()].has_value()) {
    // Star pruning already produced the selection vector; no bucket seed.
    candidates = *allowed_sets[q.focus()];
  } else {
    candidates = FocusCandidates(q, key).Take();
  }
  if (c_candidates_ != nullptr) c_candidates_->Inc(candidates.size());

  return {VerifyCandidates(q, key, std::move(candidates), allowed_sets,
                           priority)};
}

}  // namespace wqe
