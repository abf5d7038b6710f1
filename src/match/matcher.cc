#include "match/matcher.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/thread_pool.h"
#include "match/ball.h"
#include "match/candidate_set.h"
#include "obs/trace.h"

namespace wqe {

namespace {

/// Memo cells per graph element (node or edge): the filtered-ball memo of
/// one matcher may hold 16 × (|V| + |E|) node ids before it is reset.
constexpr size_t kBallCellsPerElement = 16;
/// Cells charged per memo entry and per ball-key slot (a hash-map node plus
/// its bucket is about the size of eight node ids).
constexpr size_t kBallEntryCells = 8;

}  // namespace

Matcher::Matcher(const Graph& g, DistanceIndex* dist)
    : g_(g),
      dist_(dist),
      bfs_(g),
      ball_budget_(kBallCellsPerElement * (g.num_nodes() + g.num_edges())) {}

std::shared_ptr<const Matcher::MatchPlan> Matcher::BuildPlan(
    const PatternQuery& q) {
  static std::atomic<uint64_t> next_serial{1};
  auto plan = std::make_shared<MatchPlan>();
  plan->filters = match::QueryFilterPlans::Compile(q);
  plan->serial = next_serial.fetch_add(1, std::memory_order_relaxed);

  const auto mask = q.ActiveMask();
  std::vector<bool> placed(q.num_nodes(), false);
  placed[q.focus()] = true;
  bool progress = true;
  while (progress) {
    progress = false;
    // Find an unplaced active node adjacent to a placed one; among its edges
    // into the placed set, anchor on the smallest bound (smallest ball).
    for (QNodeId u = 0; u < q.num_nodes(); ++u) {
      if (placed[u] || !mask[u]) continue;
      PlanStep step;
      step.node = u;
      step.anchor = kNoQNode;
      for (const QueryEdge& e : q.edges()) {
        QNodeId other = kNoQNode;
        bool outgoing_from_anchor = false;
        if (e.from == u && placed[e.to]) {
          other = e.to;
          outgoing_from_anchor = false;  // edge u -> other
        } else if (e.to == u && placed[e.from]) {
          other = e.from;
          outgoing_from_anchor = true;  // edge other -> u
        } else {
          continue;
        }
        if (step.anchor == kNoQNode || e.bound < step.anchor_bound) {
          if (step.anchor != kNoQNode) {
            // Demote the previous anchor to a distance check.
            step.checks.push_back(
                {step.anchor, step.anchor_bound, !step.anchor_outgoing});
          }
          step.anchor = other;
          step.anchor_bound = e.bound;
          step.anchor_outgoing = outgoing_from_anchor;
        } else {
          // Check semantics: `outgoing` means pattern edge node -> other.
          step.checks.push_back({other, e.bound, !outgoing_from_anchor});
        }
      }
      if (step.anchor == kNoQNode) continue;
      BallKey& key = step.ball;
      key.filter = plan->filters.at(u).fingerprint();
      key.bound = step.anchor_bound;
      key.outgoing = step.anchor_outgoing;
      key.hash = std::hash<std::string>{}(key.filter) * 31 +
                 key.bound * 2 + (key.outgoing ? 1 : 0);
      placed[u] = true;
      plan->steps.push_back(std::move(step));
      progress = true;
    }
  }
  // Forward-check lists. A step's anchor is the focus or an earlier step's
  // node. The step right after its anchor's step (and step 0, after the
  // focus) is left out: the search looks up that ball next anyway.
  for (uint32_t e = 0; e < plan->steps.size(); ++e) {
    const QNodeId anchor = plan->steps[e].anchor;
    if (anchor == q.focus()) {
      if (e > 0) plan->focus_dependents.push_back(e);
      continue;
    }
    for (uint32_t d = 0; d < e; ++d) {
      if (plan->steps[d].node != anchor) continue;
      if (e > d + 1) plan->steps[d].dependents.push_back(e);
      break;
    }
  }
  return plan;
}

const Matcher::MatchPlan& Matcher::PlanFor(const PatternQuery& q,
                                           const QueryKey& key) {
  if (plan_cache_ != nullptr && key == plan_key_) {
    ++stats_.plan_cache_hits;
    return *plan_cache_;
  }
  if (shared_plans_ != nullptr) {
    if (auto shared = shared_plans_->Lookup(key)) {
      plan_cache_ = std::move(shared);
      plan_key_ = key;
      ++stats_.plan_cache_hits;
      return *plan_cache_;
    }
  }
  auto built = BuildPlan(q);
  if (shared_plans_ != nullptr) shared_plans_->Publish(key, built);
  plan_cache_ = std::move(built);
  plan_key_ = key;
  ++stats_.plan_builds;
  return *plan_cache_;
}

void Matcher::BeginProbe(const MatchPlan& plan) {
  const size_t charged = ball_cells_.size() +
                         (balls_.size() + ball_slots_.size()) * kBallEntryCells;
  if (charged > ball_budget_) {
    ball_cells_.clear();
    balls_.clear();
    ball_slots_.clear();
    resolved_plan_ = 0;
    ++stats_.ball_evictions;
  }
  if (plan.serial != 0 && plan.serial == resolved_plan_) return;
  step_slots_.resize(plan.steps.size());
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const uint32_t next = static_cast<uint32_t>(ball_slots_.size());
    step_slots_[i] = ball_slots_.try_emplace(plan.steps[i].ball, next)
                         .first->second;
  }
  resolved_plan_ = plan.serial;
}

Matcher::BallSpan Matcher::Ball(const PatternQuery& q, const MatchPlan& plan,
                                size_t depth, NodeId anchor_match) {
  const uint64_t key = (uint64_t{step_slots_[depth]} << 32) | anchor_match;
  auto [it, inserted] = balls_.try_emplace(key);
  if (!inserted) {
    ++stats_.ball_hits;
    return it->second;
  }
  ++stats_.ball_fills;
  const PlanStep& step = plan.steps[depth];
  const size_t begin = ball_cells_.size();
  match::ForEachFilteredBallNode(
      bfs_, anchor_match, step.anchor_bound,
      step.anchor_outgoing ? match::BallDir::kOut : match::BallDir::kIn,
      [&](NodeId w) { return Admits(q, plan, step.node, w); },
      [&](NodeId w) { ball_cells_.push_back(w); });
  it->second = {static_cast<uint32_t>(begin),
                static_cast<uint32_t>(ball_cells_.size() - begin)};
  return it->second;
}

bool Matcher::Viable(const PatternQuery& q, const MatchPlan& plan,
                     const std::vector<uint32_t>& dependents, NodeId v) {
  for (const uint32_t e : dependents) {
    if (Ball(q, plan, e, v).size == 0) {
      ++stats_.forward_prunes;
      return false;
    }
  }
  return true;
}

bool Matcher::Extend(const PatternQuery& q, const MatchPlan& plan, size_t depth,
                     std::vector<NodeId>& assign, size_t limit, size_t& emitted,
                     const std::vector<const std::vector<NodeId>*>* allowed,
                     const std::function<bool(const std::vector<NodeId>&)>& cb) {
  if (depth == plan.steps.size()) {
    ++emitted;
    const bool keep_going = cb(assign);
    return keep_going && emitted < limit;
  }
  const PlanStep& step = plan.steps[depth];
  // Candidates of step.node inside the bounded ball around the anchor match.
  const BallSpan ball = Ball(q, plan, depth, assign[step.anchor]);
  const std::vector<NodeId>* ok_set =
      allowed != nullptr ? (*allowed)[step.node] : nullptr;
  for (uint32_t i = 0; i < ball.size; ++i) {
    // Indexed rather than iterated: fills in deeper frames may grow (and
    // reallocate) the arena.
    const NodeId v = ball_cells_[ball.begin + i];
    ++stats_.node_expansions;
    if (ok_set != nullptr &&
        !std::binary_search(ok_set->begin(), ok_set->end(), v)) {
      continue;
    }
    // Injectivity.
    if (std::find(assign.begin(), assign.end(), v) != assign.end()) continue;
    // Remaining edge constraints to already-assigned nodes.
    bool ok = true;
    for (const PlanStep::Check& check : step.checks) {
      const NodeId other_match = assign[check.other];
      // Const distance path with this matcher's own BFS scratch (no sweep
      // is in flight here: balls are swept whole before they are walked),
      // so worker matchers can share one frozen DistanceIndex.
      const uint32_t d =
          check.outgoing
              ? dist_->Distance(v, other_match, check.bound, bfs_)
              : dist_->Distance(other_match, v, check.bound, bfs_);
      if (d == kInfDist) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    // Last, since it may sweep a ball: some later step anchored on v's node
    // has nothing to draw from.
    if (!Viable(q, plan, step.dependents, v)) continue;
    assign[step.node] = v;
    const bool keep_going =
        Extend(q, plan, depth + 1, assign, limit, emitted, allowed, cb);
    assign[step.node] = kInvalidNode;
    if (!keep_going) return false;
  }
  return true;
}

void Matcher::Valuations(
    const PatternQuery& q, const QueryKey& key, NodeId focus_match,
    size_t limit, const std::function<bool(const std::vector<NodeId>&)>& cb) {
  ++stats_.focus_verifications;
  const MatchPlan* plan = nullptr;
  if (use_pipeline_) {
    plan = &PlanFor(q, key);
    if (!plan->filters.at(q.focus()).Admits(g_.view(), focus_match)) return;
  } else {
    if (!IsCandidate(g_, q, q.focus(), focus_match)) return;
    plan = &PlanFor(q, key);
  }
  BeginProbe(*plan);
  if (!Viable(q, *plan, plan->focus_dependents, focus_match)) return;
  std::vector<NodeId> assign(q.num_nodes(), kInvalidNode);
  assign[q.focus()] = focus_match;
  size_t emitted = 0;
  Extend(q, *plan, 0, assign, limit, emitted, nullptr, cb);
}

bool Matcher::IsMatch(const PatternQuery& q, const QueryKey& key, NodeId v) {
  bool found = false;
  Valuations(q, key, v, 1, [&](const std::vector<NodeId>&) {
    found = true;
    return false;
  });
  return found;
}

bool Matcher::IsMatchRestricted(
    const PatternQuery& q, const MatchPlan& plan, NodeId v,
    const std::vector<const std::vector<NodeId>*>& allowed) {
  ++stats_.focus_verifications;
  if (use_pipeline_) {
    if (!plan.filters.at(q.focus()).Admits(g_.view(), v)) return false;
  } else {
    if (!IsCandidate(g_, q, q.focus(), v)) return false;
  }
  if (allowed[q.focus()] != nullptr) {
    const auto& ok = *allowed[q.focus()];
    if (!std::binary_search(ok.begin(), ok.end(), v)) return false;
  }
  BeginProbe(plan);
  if (!Viable(q, plan, plan.focus_dependents, v)) return false;
  std::vector<NodeId> assign(q.num_nodes(), kInvalidNode);
  assign[q.focus()] = v;
  size_t emitted = 0;
  bool found = false;
  Extend(q, plan, 0, assign, 1, emitted, &allowed,
         [&](const std::vector<NodeId>&) {
           found = true;
           return false;
         });
  return found;
}

std::vector<NodeId> Matcher::FocusCandidates(const PatternQuery& q,
                                             const QueryKey& key) {
  if (!use_pipeline_) {
    // Legacy interpreted scan; fed through the same funnel counters so the
    // ablation compares time, not accounting.
    const QueryNode& qn = q.node(q.focus());
    stats_.candidates_seeded += qn.label == kWildcardSymbol
                                    ? g_.num_nodes()
                                    : g_.NodesWithLabel(qn.label).size();
    std::vector<NodeId> out = ComputeCandidates(g_, q, q.focus());
    stats_.candidates_filtered += out.size();
    return out;
  }
  const MatchPlan& plan = PlanFor(q, key);
  std::vector<NodeId> out = match::ComputeCandidatesCompiled(
      g_, plan.filters.at(q.focus()), &stats_.candidates_seeded);
  stats_.candidates_filtered += out.size();
  return out;
}

std::vector<NodeId> Matcher::Answer(const PatternQuery& q, size_t num_threads) {
  WQE_SPAN("match.answer");
  const QueryKey key = QueryKey::Of(q);
  const std::vector<NodeId> candidates = FocusCandidates(q, key);
  std::vector<NodeId> out;
  const size_t threads = ResolveThreads(num_threads);
  if (threads <= 1 || candidates.size() <= 1) {
    for (NodeId v : candidates) {
      if (IsMatch(q, key, v)) out.push_back(v);
    }
    return out;
  }

  // Shard the candidates over worker matchers: slot 0 reuses this matcher's
  // scratch, each other slot builds its own over the shared frozen graph and
  // distance index. Verdicts land in index-addressed slots and are folded in
  // candidate order, so the answer is byte-identical to the serial loop.
  PerThread<Matcher> workers(threads, [this] {
    auto m = std::unique_ptr<Matcher>(new Matcher(g_, dist_));
    m->set_use_pipeline(use_pipeline_);
    return m;
  });
  std::vector<uint8_t> is_match(candidates.size(), 0);
  ParallelFor(threads, 0, candidates.size(), /*grain=*/8,
              [&](size_t i, size_t slot) {
                Matcher& m = slot == 0 ? *this : workers.at(slot);
                is_match[i] = m.IsMatch(q, key, candidates[i]) ? 1 : 0;
              });
  for (size_t slot = 1; slot < threads; ++slot) {
    if (Matcher* m = workers.created(slot)) stats_.Merge(m->stats());
  }
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (is_match[i]) out.push_back(candidates[i]);
  }
  return out;
}

}  // namespace wqe
