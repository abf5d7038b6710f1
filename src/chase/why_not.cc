#include "chase/why_not.h"

#include <sstream>

#include "chase/diagnosis.h"
#include "chase/engine.h"
#include "match/candidates.h"

namespace wqe {

namespace {

/// Records whether the repaired query matched the entity; the single
/// verification proposal then stops the run.
class RepairVerifyAccept : public engine::AcceptPolicy {
 public:
  explicit RepairVerifyAccept(WhyNotReport* report) : report_(report) {}

  bool Offer(const engine::Judged& judged, const engine::Proposal&,
             engine::ChaseState&) override {
    report_->repair_verified = judged.eval->satisfies_exemplar;
    return false;
  }

 private:
  WhyNotReport* report_;
};

class StopAfterFirst : public engine::StopPolicy {
 public:
  bool AfterOffer(const engine::Judged&, const engine::Proposal&,
                  engine::ChaseState&) override {
    return true;
  }
};

}  // namespace

WhyNotReport ExplainWhyNot(ChaseContext& ctx, NodeId entity) {
  const Graph& g = ctx.graph();
  const PatternQuery& q = ctx.root()->query;
  const QNodeId focus = q.focus();
  const Schema& schema = g.schema();

  WhyNotReport report;
  report.entity = entity;
  if (std::binary_search(ctx.root()->matches.begin(),
                         ctx.root()->matches.end(), entity)) {
    report.is_match = true;
    return report;
  }

  // Label mismatch is not repairable by removal operators; report it as a
  // terminal condition.
  const QueryNode& fq = q.node(focus);
  if (fq.label != kWildcardSymbol && g.label(entity) != fq.label) {
    WhyNotReport::FailedCondition f;
    f.condition = "entity label '" + schema.LabelName(g.label(entity)) +
                  "' differs from the focus label '" +
                  schema.LabelName(fq.label) + "' (not repairable)";
    report.failures.push_back(std::move(f));
    return report;
  }

  auto add_failure = [&](std::string condition, Op repair) {
    WhyNotReport::FailedCondition f;
    f.condition = std::move(condition);
    f.cost = ctx.OpCostOf(repair);
    f.repair = repair;
    report.repair_cost += f.cost;
    report.repair.Append(std::move(repair));
    report.failures.push_back(std::move(f));
  };

  BoundedBfs bfs(g);
  const diagnosis::PatternTree tree = diagnosis::BuildTree(q);
  for (const diagnosis::Failure& f :
       diagnosis::DiagnoseRemovals(g, bfs, q, tree, entity)) {
    const std::string node_desc =
        "u" + std::to_string(f.node) + " (" +
        (q.node(f.node).label == kWildcardSymbol
             ? "any"
             : schema.LabelName(q.node(f.node).label)) +
        ")";
    switch (f.kind) {
      case diagnosis::Failure::Kind::kFocusLiteral:
        add_failure(
            "u" + std::to_string(focus) + ": " + f.literal.ToString(schema),
            f.repair);
        break;
      case diagnosis::Failure::Kind::kUnreachable:
        add_failure(node_desc + " unreachable within " +
                        std::to_string(f.hops) + " hops",
                    f.repair);
        break;
      case diagnosis::Failure::Kind::kLiteralUnsat:
        add_failure(node_desc + ": no reachable node satisfies " +
                        f.literal.ToString(schema),
                    f.repair);
        break;
    }
  }

  // Verify the repair: the entity must match the repaired query. The single
  // proposal routes through the engine (which owns the apply loop); an
  // inapplicable repair simply never reaches the verdict.
  if (!report.repair.empty()) {
    std::vector<engine::ListFrontier::Candidate> candidates(1);
    candidates[0].ops = report.repair.ops();
    engine::ListFrontier frontier(&q, std::move(candidates));
    RepairVerifyAccept accept(&report);
    StopAfterFirst stop;
    uint64_t steps = 0;
    uint64_t pruned = 0;
    engine::ChaseState state(&steps, &pruned);

    engine::EngineConfig cfg;
    cfg.opts = &ctx.options();
    cfg.frontier = &frontier;
    cfg.accept = &accept;
    cfg.stop = &stop;
    cfg.evaluate = [&ctx, entity](PatternQuery&& query, OpSequence,
                                  const engine::Proposal& prop) {
      engine::Judged j;
      auto eval = std::make_shared<EvalResult>();
      eval->query = std::move(query);
      eval->key = prop.key;
      eval->satisfies_exemplar = ctx.star_matcher().matcher().IsMatch(
          eval->query, eval->key, entity);
      j.eval = std::move(eval);
      return j;
    };
    engine::Run(cfg, state);
  }
  return report;
}

std::string WhyNotReport::ToString(const Graph& g) const {
  std::ostringstream out;
  const std::string name = g.name(entity).empty()
                               ? "#" + std::to_string(entity)
                               : std::string(g.name(entity));
  if (is_match) {
    out << name << " already matches the query.\n";
    return out.str();
  }
  if (failures.empty()) {
    out << name
        << " fails no atomic condition individually; its absence stems from "
           "joint constraints (injectivity or combined bounds).\n";
    return out.str();
  }
  out << name << " is not a match because:\n";
  for (const FailedCondition& f : failures) {
    out << "  - " << f.condition;
    if (!f.repair.is_noop()) {
      out << "  [repair: " << f.repair.ToString(g.schema()) << ", cost "
          << f.cost << "]";
    }
    out << "\n";
  }
  if (!repair.empty()) {
    out << "Total repair cost " << repair_cost << "; repair "
        << (repair_verified ? "verified" : "NOT sufficient alone") << ".\n";
  }
  return out.str();
}

}  // namespace wqe
