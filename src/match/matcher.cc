#include "match/matcher.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
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

void Matcher::set_shared_plans(SharedPlans* plans) {
  shared_plans_ = plans;
  for (auto& worker : workers_) {
    if (worker != nullptr) worker->set_shared_plans(plans);
  }
}

void Matcher::set_use_pipeline(bool on) {
  use_pipeline_ = on;
  for (auto& worker : workers_) {
    if (worker != nullptr) worker->set_use_pipeline(on);
  }
}

Matcher& Matcher::Worker(size_t slot) {
  std::unique_ptr<Matcher>& worker = workers_[slot - 1];
  if (worker == nullptr) {
    worker = std::make_unique<Matcher>(g_, dist_);
    worker->shared_plans_ = shared_plans_;
    worker->use_pipeline_ = use_pipeline_;
  }
  return *worker;
}

void Matcher::ShardProbes(
    size_t num_threads, size_t n, size_t grain,
    const std::function<void(Matcher& m, size_t i)>& probe) {
  const size_t threads = ResolveThreads(num_threads);
  // Sized here, on the calling thread; each slot fills only its own entry.
  if (workers_.size() + 1 < threads) workers_.resize(threads - 1);
  auto merge = [this] {
    for (auto& worker : workers_) {
      if (worker == nullptr) continue;
      stats_.Merge(worker->stats_);
      worker->stats_ = MatchStats();
    }
  };
  try {
    ParallelFor(threads, 0, n, grain, [&](size_t i, size_t slot) {
      probe(slot == 0 ? *this : Worker(slot), i);
    });
  } catch (...) {
    merge();
    throw;
  }
  merge();
}

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

bool Matcher::AdmitCandidate(const PatternQuery& q, const MatchPlan& plan,
                             const PlanStep& step,
                             const std::vector<NodeId>& assign,
                             const std::vector<NodeId>* ok_set, NodeId v) {
  if (ok_set != nullptr &&
      !std::binary_search(ok_set->begin(), ok_set->end(), v)) {
    return false;
  }
  // Injectivity.
  if (std::find(assign.begin(), assign.end(), v) != assign.end()) return false;
  // Remaining edge constraints to already-assigned nodes.
  for (const PlanStep::Check& check : step.checks) {
    const NodeId other_match = assign[check.other];
    // Const distance path with this matcher's own BFS scratch (no sweep is
    // in flight here: balls are swept whole before they are walked), so
    // worker matchers can share one frozen DistanceIndex.
    const uint32_t d = check.outgoing
                           ? dist_->Distance(v, other_match, check.bound, bfs_)
                           : dist_->Distance(other_match, v, check.bound, bfs_);
    if (d == kInfDist) return false;
  }
  // Last, since it may sweep a ball: some later step anchored on v's node
  // has nothing to draw from.
  return Viable(q, plan, step.dependents, v);
}

bool Matcher::Extend(const PatternQuery& q, const MatchPlan& plan, size_t depth,
                     std::vector<NodeId>& assign, size_t limit, size_t& emitted,
                     const Allowed* allowed, const ValuationFn& cb) {
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
  ProjectionRun* const run = projection_;
  const bool projected_step = run != nullptr && depth == run->depth;
  for (uint32_t i = 0; i < ball.size; ++i) {
    // Indexed rather than iterated: fills in deeper frames may grow (and
    // reallocate) the arena.
    const NodeId v = ball_cells_[ball.begin + i];
    ++stats_.node_expansions;
    if (run != nullptr) {
      if (stats_.node_expansions > run->state_limit) {
        run->over_cap = true;
        return false;
      }
      // A projection already holding v needs no second valuation for it.
      if (projected_step && marks_[v] == mark_epoch_) continue;
    }
    if (!AdmitCandidate(q, plan, step, assign, ok_set, v)) continue;
    assign[step.node] = v;
    const bool keep_going =
        Extend(q, plan, depth + 1, assign, limit, emitted, allowed, cb);
    assign[step.node] = kInvalidNode;
    if (!keep_going) return false;
    if (run != nullptr && run->found) {
      // Unwind to the projected step: the rest of this subtree shares its
      // h(u), which the projection now holds.
      if (!projected_step) return true;
      run->found = false;
    }
  }
  return true;
}

void Matcher::Probe(const PatternQuery& q, const MatchPlan& plan, NodeId v,
                    size_t limit, const Allowed* allowed,
                    const ValuationFn& cb) {
  ++stats_.focus_verifications;
  if (!Admits(q, plan, q.focus(), v)) return;
  if (allowed != nullptr) {
    const std::vector<NodeId>* ok = (*allowed)[q.focus()];
    if (ok != nullptr && !std::binary_search(ok->begin(), ok->end(), v)) {
      return;
    }
  }
  BeginProbe(plan);
  if (!Viable(q, plan, plan.focus_dependents, v)) return;
  std::vector<NodeId> assign(q.num_nodes(), kInvalidNode);
  assign[q.focus()] = v;
  size_t emitted = 0;
  Extend(q, plan, 0, assign, limit, emitted, allowed, cb);
}

bool Matcher::HasWitness(const PatternQuery& q, const MatchPlan& plan,
                         NodeId v, const Allowed* allowed) {
  bool found = false;
  Probe(q, plan, v, 1, allowed, [&](const std::vector<NodeId>&) {
    found = true;
    return false;
  });
  return found;
}

void Matcher::Valuations(const PatternQuery& q, const QueryKey& key,
                         NodeId focus_match, size_t limit,
                         const ValuationFn& cb) {
  Probe(q, PlanFor(q, key), focus_match, limit, nullptr, cb);
}

bool Matcher::IsMatch(const PatternQuery& q, const QueryKey& key, NodeId v) {
  return HasWitness(q, PlanFor(q, key), v, nullptr);
}

bool Matcher::IsMatchRestricted(const PatternQuery& q, const MatchPlan& plan,
                                NodeId v, const Allowed& allowed) {
  return HasWitness(q, plan, v, &allowed);
}

bool Matcher::Project(const PatternQuery& q, const MatchPlan& plan, NodeId v,
                      QNodeId u, uint64_t max_states,
                      std::vector<NodeId>* out) {
  ProjectionRun run;
  while (run.depth < plan.steps.size() && plan.steps[run.depth].node != u) {
    ++run.depth;
  }
  if (run.depth == plan.steps.size()) {
    std::fprintf(stderr, "Matcher::Project: u%u is not an active non-focus "
                         "node of the plan\n", static_cast<unsigned>(u));
    std::abort();
  }
  if (marks_.size() != g_.num_nodes()) {
    marks_.assign(g_.num_nodes(), 0);
    mark_epoch_ = 0;
  }
  if (++mark_epoch_ == 0) {  // wrapped: no stale mark may equal the epoch
    std::fill(marks_.begin(), marks_.end(), 0);
    mark_epoch_ = 1;
  }
  const uint64_t start = stats_.node_expansions;
  run.state_limit = start + max_states;
  projection_ = &run;
  // Detach the run on every exit, so a later plain search never sees it.
  struct Detach {
    Matcher* m;
    ~Detach() { m->projection_ = nullptr; }
  } detach{this};
  Probe(q, plan, v, std::numeric_limits<size_t>::max(), nullptr,
        [&](const std::vector<NodeId>& assign) {
          const NodeId w = assign[u];
          marks_[w] = mark_epoch_;
          out->push_back(w);
          run.found = true;
          return true;
        });
  stats_.projection_states += stats_.node_expansions - start;
  return !run.over_cap;
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
  if (candidates.empty()) return {};
  const MatchPlan& plan = PlanFor(q, key);
  std::vector<uint8_t> is_match(candidates.size(), 0);
  ShardProbes(num_threads, candidates.size(), /*grain=*/8,
              [&](Matcher& m, size_t i) {
                is_match[i] = m.HasWitness(q, plan, candidates[i], nullptr);
              });
  std::vector<NodeId> out;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (is_match[i]) out.push_back(candidates[i]);
  }
  return out;
}

}  // namespace wqe
