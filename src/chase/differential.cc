#include "chase/differential.h"

#include <algorithm>
#include <sstream>

#include "chase/delta_eval.h"

namespace wqe {

std::string DifferentialTable::ToString(const Graph& g) const {
  std::ostringstream out;
  const Schema& schema = g.schema();
  auto node_name = [&](NodeId v) {
    return g.name(v).empty() ? "#" + std::to_string(v) : g.name(v);
  };
  for (const DifferentialEntry& e : entries_) {
    out << e.op.ToString(schema) << ":\n";
    for (const auto& [v, status] : e.gained) {
      out << "  + " << node_name(v) << " becomes a "
          << (status == Relevance::kRM ? "relevant" : "irrelevant")
          << " match\n";
    }
    for (const auto& [v, status] : e.lost) {
      out << "  - " << node_name(v) << " ("
          << (status == Relevance::kRC ? "relevant" : "irrelevant")
          << " after removal) is no longer a match\n";
    }
    if (e.gained.empty() && e.lost.empty()) {
      out << "  (no answer change)\n";
    }
  }
  return out.str();
}

DifferentialTable BuildDifferentialTable(ChaseContext& ctx,
                                         const OpSequence& ops) {
  DifferentialTable table;
  PatternQuery q = ctx.question().query;
  OpSequence prefix;
  // Replay rides the delta path: each prefix step is a single-op rewrite of
  // the previous one — exactly the incremental shape — so a lineage replay
  // against a cold context (post-hoc explain, log mining) re-verifies only
  // each op's neighborhood instead of re-evaluating every prefix in full.
  // Against a warm context the memo still answers first, as before.
  DeltaEvaluator delta(ctx);
  auto prev = ctx.Evaluate(q, prefix);
  for (const Op& op : ops.ops()) {
    if (!Apply(op, &q, ctx.options().max_bound)) break;
    prefix.Append(op);
    auto next = delta.Evaluate(q, ctx.RenderKey(q), prefix, prev.get(), {op});

    DifferentialEntry entry;
    entry.op = op;
    std::vector<NodeId> gained, lost;
    std::set_difference(next->matches.begin(), next->matches.end(),
                        prev->matches.begin(), prev->matches.end(),
                        std::back_inserter(gained));
    std::set_difference(prev->matches.begin(), prev->matches.end(),
                        next->matches.begin(), next->matches.end(),
                        std::back_inserter(lost));
    for (NodeId v : gained) entry.gained.push_back({v, next->rel.StatusOf(v)});
    for (NodeId v : lost) entry.lost.push_back({v, next->rel.StatusOf(v)});
    table.Append(std::move(entry));
    prev = std::move(next);
  }
  return table;
}

}  // namespace wqe
