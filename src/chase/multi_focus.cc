#include "chase/multi_focus.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "chase/engine.h"
#include "chase/next_op.h"

namespace wqe {

namespace {

// Joint view of one rewrite across all foci.
struct JointEval {
  PatternQuery query;  // focus() field irrelevant
  OpSequence ops;
  double cost = 0;
  std::vector<std::shared_ptr<EvalResult>> per_focus;
  double total_cl = 0;
  double total_cl_plus = 0;
  bool satisfies_all = false;
  bool refined = false;
};

/// Pools every focus's GenRx/GenRf operators for a joint node and ranks the
/// union by pickiness: an operator picked for focus u_i may improve u_j too.
class JointOps : public engine::OperatorPolicy {
 public:
  explicit JointOps(std::vector<std::unique_ptr<ChaseContext>>& contexts)
      : contexts_(contexts) {}

  void Expand(engine::Node& node, engine::ChaseState&) override {
    const auto& joint = *std::static_pointer_cast<JointEval>(node.detail);
    node.chase.ops_generated = true;
    std::vector<ScoredOp> pooled;
    for (size_t i = 0; i < contexts_.size(); ++i) {
      ChaseNode per;
      per.eval = joint.per_focus[i];
      GenerateOps(*contexts_[i], per, /*best_cl=*/-1e18, /*per_class_cap=*/0,
                  nullptr);
      pooled.insert(pooled.end(), per.queue.begin(), per.queue.end());
    }
    std::stable_sort(pooled.begin(), pooled.end(),
                     [](const ScoredOp& a, const ScoredOp& b) {
                       return a.pickiness > b.pickiness;
                     });
    node.chase.queue = std::move(pooled);
  }

 private:
  std::vector<std::unique_ptr<ChaseContext>>& contexts_;
};

/// Collects Σ-consistent-everywhere joint rewrites into the top-k by summed
/// closeness, and prunes refinement subtrees whose summed bound cannot enter
/// it (the summed cl⁺ is a valid upper bound on any refinement descendant's
/// summed closeness — Lemma 5.5 per focus).
class JointAccept : public engine::AcceptPolicy {
 public:
  explicit JointAccept(size_t top_k, bool use_pruning)
      : k_(std::max<size_t>(top_k, 1)), use_pruning_(use_pruning) {}

  bool ShouldPrune(const engine::Judged& judged, const engine::Proposal&,
                   engine::ChaseState&) override {
    const double threshold =
        answers_.size() >= k_ ? answers_.back().total_closeness : -1e18;
    return use_pruning_ && judged.eval->refined &&
           judged.eval->cl_plus <= threshold + engine::kEps;
  }

  /// Pre-evaluation cut: refinement shrinks every focus's RM, so the summed
  /// child cl⁺ is dominated by the summed parent cl⁺ the engine passes as
  /// `bound` — the child's ShouldPrune verdict is known without evaluating
  /// any focus.
  bool PruneByBound(double bound, const engine::Proposal&,
                    engine::ChaseState&) override {
    const double threshold =
        answers_.size() >= k_ ? answers_.back().total_closeness : -1e18;
    return use_pruning_ && bound <= threshold + engine::kEps;
  }

  bool Offer(const engine::Judged& judged, const engine::Proposal&,
             engine::ChaseState&) override {
    const auto& joint = *std::static_pointer_cast<JointEval>(judged.detail);
    if (!joint.satisfies_all) return false;
    const std::string& fp = judged.eval->key.text;
    for (const MultiFocusAnswer& a : answers_) {
      if (a.fingerprint == fp) return false;
    }
    MultiFocusAnswer a;
    a.rewrite = joint.query;
    a.fingerprint = fp;
    a.ops = joint.ops;
    a.cost = joint.cost;
    a.total_closeness = joint.total_cl;
    for (const auto& eval : joint.per_focus) {
      a.matches_per_focus.push_back(eval->matches);
      a.closeness_per_focus.push_back(eval->cl);
    }
    a.satisfies_all = true;
    answers_.push_back(std::move(a));
    std::stable_sort(answers_.begin(), answers_.end(),
                     [](const MultiFocusAnswer& x, const MultiFocusAnswer& y) {
                       return x.total_closeness > y.total_closeness;
                     });
    if (answers_.size() > k_) answers_.resize(k_);
    return false;
  }

  std::vector<MultiFocusAnswer> Take() { return std::move(answers_); }
  bool empty() const { return answers_.empty(); }

 private:
  size_t k_;
  bool use_pruning_;
  std::vector<MultiFocusAnswer> answers_;
};

}  // namespace

MultiFocusResult AnsWMultiFocus(const Graph& g, const MultiFocusQuestion& w,
                                const ChaseOptions& opts) {
  MultiFocusResult result;
  if (w.foci.empty() || w.foci.size() != w.exemplars.size()) return result;

  // One context per focus, sharing the graph-level indexes. Each context's
  // question carries the query re-focused on its u_i.
  GraphIndexes indexes(g);
  std::vector<std::unique_ptr<ChaseContext>> contexts;
  for (size_t i = 0; i < w.foci.size(); ++i) {
    WhyQuestion per{w.query, w.exemplars[i]};
    per.query.SetFocus(w.foci[i]);
    contexts.push_back(
        std::make_unique<ChaseContext>(g, &indexes, per, opts));
    result.cl_star_total += contexts.back()->cl_star();
  }
  const ChaseOptions& options = contexts.front()->options();  // deadline armed

  // The context counters stay untouched (they are summed per focus below);
  // the engine's step/prune ticks land in locals.
  uint64_t steps = 0;
  uint64_t pruned = 0;
  engine::ChaseState state(&steps, &pruned);

  // The joint evaluation: the rewrite re-focused on each u_i in turn, each
  // evaluated through its own context; the summary EvalResult carries the
  // summed closeness/bound so the generic frontier/prune machinery orders
  // joint nodes exactly as the dedicated loop did.
  auto evaluate = [&](PatternQuery&& query, OpSequence ops,
                      const engine::Proposal& prop) {
    auto joint = std::make_shared<JointEval>();
    joint->query = std::move(query);
    joint->ops = std::move(ops);
    joint->cost = contexts.front()->SeqCost(joint->ops);
    joint->satisfies_all = true;
    for (const Op& op : joint->ops.ops()) {
      if (op.is_refine()) joint->refined = true;
    }
    for (size_t i = 0; i < contexts.size(); ++i) {
      PatternQuery focused = joint->query;
      focused.SetFocus(w.foci[i]);
      auto eval = contexts[i]->Evaluate(focused, joint->ops);
      joint->total_cl += eval->cl;
      joint->total_cl_plus += eval->cl_plus;
      joint->satisfies_all &= eval->satisfies_exemplar;
      joint->per_focus.push_back(std::move(eval));
    }
    engine::Judged j;
    auto summary = std::make_shared<EvalResult>();
    summary->query = joint->query;
    summary->key = prop.key;
    summary->ops = joint->ops;
    summary->cost = joint->cost;
    summary->cl = joint->total_cl;
    summary->cl_plus = joint->total_cl_plus;
    summary->satisfies_exemplar = joint->satisfies_all;
    summary->refined = joint->refined;
    j.eval = std::move(summary);
    j.detail = std::move(joint);
    return j;
  };

  JointOps ops(contexts);
  engine::BestFirstFrontier frontier(&ops);
  JointAccept accept(opts.top_k, opts.use_pruning);
  engine::StopPolicy stop;

  engine::EngineConfig cfg;
  cfg.opts = &options;
  cfg.frontier = &frontier;
  cfg.accept = &accept;
  cfg.stop = &stop;
  cfg.evaluate = evaluate;
  cfg.step_count = engine::StepCount::kAtPoll;
  cfg.check_budget = true;
  cfg.dedup = engine::DedupMode::kCheapest;

  engine::Proposal root_prop;
  root_prop.key = QueryKey::Of(w.query);
  engine::Judged root = evaluate(PatternQuery(w.query), OpSequence(), root_prop);
  const auto root_joint = std::static_pointer_cast<JointEval>(root.detail);
  engine::SeedRoot(cfg, state, root);
  frontier.Push(root);

  // Arm in-loop deadline checks only now: the root joint evaluation above
  // must complete so the anytime fallback answer always exists. Each context
  // carries its own Deadline copy (armed at its construction); contexts are
  // destroyed with this frame, so the pointers cannot dangle.
  for (auto& c : contexts) {
    c->star_matcher().set_deadline(&c->options().deadline);
  }

  engine::Run(cfg, state);

  result.answers = accept.Take();
  if (result.answers.empty()) {
    MultiFocusAnswer a;
    a.rewrite = root_joint->query;
    a.fingerprint = root_prop.key.text;
    a.total_closeness = root_joint->total_cl;
    for (const auto& eval : root_joint->per_focus) {
      a.matches_per_focus.push_back(eval->matches);
      a.closeness_per_focus.push_back(eval->cl);
    }
    a.satisfies_all = root_joint->satisfies_all;
    result.answers.push_back(std::move(a));
  }
  result.stats.steps = steps;
  result.stats.pruned = pruned;
  result.stats.bound_cuts = state.bound_cuts;
  result.stats.fingerprint_renders = 1 + state.fingerprint_renders;  // + root
  result.stats.elapsed_seconds = state.timer.ElapsedSeconds();
  result.stats.termination = stop.Termination(state);
  for (const auto& ctx : contexts) {
    result.stats.evaluations += ctx->stats().evaluations;
    result.stats.ops_generated += ctx->stats().ops_generated;
    result.stats.fingerprint_renders += ctx->stats().fingerprint_renders;
  }
  return result;
}

}  // namespace wqe
