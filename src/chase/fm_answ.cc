#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "chase/engine.h"
#include "chase/solve.h"
#include "query/ops.h"

namespace wqe {

namespace {

constexpr size_t kMaxFeatures = 32;
constexpr size_t kMaxEvaluations = 2500;
constexpr size_t kMaxMinedNodes = 300;
constexpr size_t kBeamPerLevel = 40;  // apriori survivors expanded per level

struct Feature {
  Op op;
};

/// Apriori-style level-wise lattice over feature subsets: level-k patterns
/// extend frequent level-(k-1) patterns by one feature; support of each
/// candidate pattern is counted by evaluating it (the expensive part of
/// pattern mining: support counting *is* query evaluation). No apriori
/// support pruning: removal features break anti-monotonicity (an empty
/// pattern can regain matches when a literal is dropped), so every applicable
/// pattern stays expandable.
class LatticeFrontier : public engine::FrontierPolicy {
 public:
  LatticeFrontier(ChaseContext& ctx, const PatternQuery* base_query,
                  const std::vector<Feature>& features, size_t max_level)
      : ctx_(ctx),
        base_query_(base_query),
        features_(features),
        max_level_(max_level) {}

  bool Next(engine::ChaseState&, engine::Proposal* out) override {
    while (true) {
      if (level_ == 1) {
        if (cursor_ < features_.size()) {
          return Emit({cursor_++}, out);
        }
        if (!RollOver()) return false;
        continue;
      }
      if (parent_ >= frontier_.size()) {
        if (!RollOver()) return false;
        continue;
      }
      const Mined& parent = frontier_[parent_];
      if (cursor_ >= features_.size()) {
        ++parent_;
        cursor_ = 0;
        continue;
      }
      const size_t i = cursor_++;
      if (std::find(parent.ids.begin(), parent.ids.end(), i) !=
          parent.ids.end()) {
        continue;
      }
      std::vector<size_t> ids = parent.ids;
      ids.push_back(i);
      std::sort(ids.begin(), ids.end());
      // Claimed at propose time: an extension reachable from two parents is
      // evaluated once, whether or not it survives.
      if (!enumerated_.insert(ids).second) continue;
      return Emit(std::move(ids), out);
    }
  }

  void Absorb(engine::Judged judged, const engine::Proposal&,
              engine::ChaseState&) override {
    if (level_ == 1) enumerated_.insert(pending_ids_);
    std::vector<Mined>& sink = level_ == 1 ? frontier_ : next_;
    sink.push_back({pending_ids_, judged.eval->cl});
  }

 private:
  struct Mined {
    std::vector<size_t> ids;
    double cl = 0;
  };

  bool Emit(std::vector<size_t> ids, engine::Proposal* out) {
    out->base_query = base_query_;
    out->ops.clear();
    out->cost = 0;
    for (size_t i : ids) {
      out->ops.push_back(features_[i].op);
      out->cost += ctx_.OpCostOf(features_[i].op);
    }
    pending_ids_ = std::move(ids);
    return true;
  }

  /// Advances to the next level: survivors ranked by closeness, the best
  /// kBeamPerLevel expanded. False when the (bounded) lattice is done.
  bool RollOver() {
    if (level_ > 1) {
      frontier_ = std::move(next_);
      next_.clear();
      if (frontier_.empty()) return false;
    }
    ++level_;
    if (level_ > max_level_) return false;
    std::stable_sort(
        frontier_.begin(), frontier_.end(),
        [](const Mined& a, const Mined& b) { return a.cl > b.cl; });
    if (frontier_.size() > kBeamPerLevel) frontier_.resize(kBeamPerLevel);
    if (frontier_.empty()) return false;
    parent_ = 0;
    cursor_ = 0;
    return true;
  }

  ChaseContext& ctx_;
  const PatternQuery* base_query_;
  const std::vector<Feature>& features_;
  size_t max_level_;
  size_t level_ = 1;
  size_t cursor_ = 0;
  size_t parent_ = 0;
  std::vector<Mined> frontier_;
  std::vector<Mined> next_;
  std::set<std::vector<size_t>> enumerated_;
  std::vector<size_t> pending_ids_;
};

/// Every evaluated pattern competes for the best-seen / best-Σ-consistent
/// incumbents; nothing else is kept.
class FMAccept : public engine::AcceptPolicy {
 public:
  bool Offer(const engine::Judged& judged, const engine::Proposal&,
             engine::ChaseState& state) override {
    state.Consider(judged.eval);
    return false;
  }
};

class FMStop : public engine::StopPolicy {
 public:
  explicit FMStop(const size_t* evaluations) : evaluations_(evaluations) {}

  bool Done(const engine::ChaseState&) override {
    return *evaluations_ >= kMaxEvaluations;
  }

  TerminationReason Termination(const engine::ChaseState& state) override {
    if (state.out_of_time) return TerminationReason::kDeadline;
    if (*evaluations_ >= kMaxEvaluations) return TerminationReason::kStepCap;
    // The bounded feature lattice was enumerated completely within B.
    return TerminationReason::kExhausted;
  }

 private:
  const size_t* evaluations_;
};

}  // namespace

ChaseResult internal::RunFMAnsW(ChaseContext& ctx) {
  const ChaseOptions& opts = ctx.options();
  const Graph& g = ctx.graph();
  ChaseResult result;
  result.cl_star = ctx.cl_star();

  auto root = ctx.root();
  // The baseline reformulates the *original* query: mined frequent features
  // are grafted onto (or removed from) Q's focus, the [21] approach of
  // refining/diversifying the user query rather than synthesizing one.
  const PatternQuery& base_query = ctx.question().query;
  const QNodeId focus = base_query.focus();
  // ---- Candidate features: attribute values and adjacent labels seen
  // around V_{u_o}, biased toward the exemplar-relevant nodes.
  std::vector<NodeId> mined = ctx.rep().nodes;
  for (NodeId v : ctx.focus_universe()) {
    if (mined.size() >= kMaxMinedNodes) break;
    if (!ctx.rep().Contains(v)) mined.push_back(v);
  }

  std::map<std::pair<AttrId, Value>, double> value_counts;
  std::map<LabelId, double> label_counts;
  for (NodeId v : mined) {
    const double weight = ctx.rep().Contains(v) ? 2.0 : 1.0;
    for (const AttrPair& pair : g.attrs(v)) {
      value_counts[{pair.attr, pair.value}] += weight;
    }
    std::set<LabelId> seen;
    for (NodeId w : g.out(v)) seen.insert(g.label(w));
    for (LabelId l : seen) label_counts[l] += weight;
  }

  std::vector<std::pair<double, Feature>> ranked;
  for (const auto& [key, count] : value_counts) {
    Feature f;
    f.op.kind = OpKind::kAddL;
    f.op.u = focus;
    f.op.lit = {key.first, CmpOp::kEq, key.second};
    ranked.push_back({count, std::move(f)});
  }
  for (const auto& [label, count] : label_counts) {
    Feature f;
    f.op.kind = OpKind::kAddE;
    f.op.u = focus;
    f.op.creates_node = true;
    f.op.new_node_label = label;
    f.op.new_bound = 1;
    ranked.push_back({count, std::move(f)});
  }
  // Removal features: dropping any literal the original query carries is a
  // reformulation step too (the "too few answers" direction of [21]).
  for (QNodeId u : base_query.ActiveNodes()) {
    for (const Literal& lit : base_query.node(u).literals) {
      Feature f;
      f.op.kind = OpKind::kRmL;
      f.op.u = u;
      f.op.lit = lit;
      ranked.push_back({1e18, std::move(f)});  // always kept
    }
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<Feature> features;
  for (auto& [count, f] : ranked) {
    if (features.size() >= kMaxFeatures) break;
    features.push_back(std::move(f));
  }

  size_t evaluations = 0;
  const size_t max_level =
      std::max<size_t>(1, static_cast<size_t>(opts.budget));
  LatticeFrontier frontier(ctx, &base_query, features, max_level);
  FMAccept accept;
  FMStop stop(&evaluations);
  engine::ChaseState state(&ctx.stats().steps, &ctx.stats().pruned);
  state.Consider(root);

  engine::EngineConfig cfg;
  cfg.opts = &opts;
  cfg.frontier = &frontier;
  cfg.accept = &accept;
  cfg.stop = &stop;
  // Support counting: full evaluation against G with the plain matcher (no
  // star views, no caches, no memo — those are this paper's contributions;
  // the reformulation baseline of [21] has none of them). Routed through the
  // context so solver files never touch the matcher directly.
  cfg.evaluate = [&](PatternQuery&& query, OpSequence ops,
                     const engine::Proposal& prop) {
    ++evaluations;
    engine::Judged j;
    j.eval = ctx.EvaluateBaseline(std::move(query), prop.key, std::move(ops),
                                  prop.cost);
    return j;
  };
  cfg.step_count = engine::StepCount::kAtEvaluate;
  cfg.check_budget = true;
  // The plain matcher is not deadline-armed, so the loop head must poll the
  // clock on every iteration to stay responsive.
  cfg.deadline_stride = 1;

  engine::Run(cfg, state);

  const std::shared_ptr<EvalResult>& chosen =
      state.best_sat != nullptr ? state.best_sat : state.best_any;
  result.answers.push_back(engine::MakeAnswer(*chosen));
  engine::Finalize(ctx, state, stop.Termination(state), &result);
  return result;
}

}  // namespace wqe
