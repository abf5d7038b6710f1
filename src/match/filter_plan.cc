#include "match/filter_plan.h"

#include <algorithm>

namespace wqe::match {

void FilterPlan::AppendNodeFingerprint(const QueryNode& node,
                                       std::string& out) {
  out += 'L';
  out += std::to_string(node.label);
  out += '(';
  std::vector<std::string> lits;
  lits.reserve(node.literals.size());
  for (const Literal& l : node.literals) lits.push_back(LiteralKey(l));
  std::sort(lits.begin(), lits.end());
  for (const std::string& l : lits) {
    out += l;
    out += ',';
  }
  out += ')';
}

std::string FilterPlan::NodeFingerprint(const QueryNode& node) {
  std::string out;
  AppendNodeFingerprint(node, out);
  return out;
}

FilterPlan FilterPlan::Compile(const QueryNode& node) {
  FilterPlan plan;
  plan.label_ = node.label;
  AppendNodeFingerprint(node, plan.fingerprint_);

  // Group the literals by attribute: stable sort keeps same-attribute
  // predicates in declaration order (irrelevant to the conjunction's result,
  // but it keeps compilation deterministic).
  std::vector<uint32_t> order(node.literals.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return node.literals[a].attr < node.literals[b].attr;
  });

  plan.preds_.reserve(node.literals.size());
  for (uint32_t idx : order) {
    const Literal& lit = node.literals[idx];
    if (plan.groups_.empty() || plan.groups_.back().attr != lit.attr) {
      plan.groups_.push_back(
          {lit.attr, static_cast<uint32_t>(plan.preds_.size()), 0});
    }
    plan.preds_.push_back({lit.op, lit.is_wildcard(), lit.constant});
    ++plan.groups_.back().count;
  }
  return plan;
}

bool FilterPlan::AdmitsAttrs(const GraphView& view, NodeId v) const {
  if (groups_.empty()) return true;
  const AttrPair* cell = view.attr_cells.data() + view.attr_offsets[v];
  const AttrPair* const end =
      view.attr_cells.data() + view.attr_offsets[v + 1];
  for (const Group& grp : groups_) {
    // Merged forward walk: both the tuple and the groups are sorted by attr,
    // so the cursor never rewinds — k literals cost one pass of the tuple.
    while (cell != end && cell->attr < grp.attr) ++cell;
    if (cell == end || cell->attr != grp.attr) return false;
    const Value& val = cell->value;
    const CompiledPred* p = preds_.data() + grp.first;
    for (uint32_t i = 0; i < grp.count; ++i, ++p) {
      if (!p->wildcard && !EvalCmp(val, p->op, p->constant)) return false;
    }
  }
  return true;
}

void FilterPlan::FilterInto(const GraphView& view, std::span<const NodeId> in,
                            std::vector<NodeId>& out) const {
  out.reserve(out.size() + in.size());
  if (groups_.empty()) {
    out.insert(out.end(), in.begin(), in.end());
    return;
  }
  for (NodeId v : in) {
    if (AdmitsAttrs(view, v)) out.push_back(v);
  }
}

void FilterPlan::FilterAll(const GraphView& view,
                           std::vector<NodeId>& out) const {
  const NodeId n = static_cast<NodeId>(view.num_nodes());
  out.reserve(out.size() + n);
  for (NodeId v = 0; v < n; ++v) {
    if (label_ != kWildcardSymbol && view.labels[v] != label_) continue;
    if (AdmitsAttrs(view, v)) out.push_back(v);
  }
}

QueryFilterPlans QueryFilterPlans::Compile(const PatternQuery& q) {
  QueryFilterPlans plans;
  plans.plans_.reserve(q.num_nodes());
  for (QNodeId u = 0; u < q.num_nodes(); ++u) {
    plans.plans_.push_back(FilterPlan::Compile(q.node(u)));
  }
  return plans;
}

bool LiteralHolds(const Graph& g, NodeId v, const Literal& lit) {
  return lit.Matches(g, v);
}

std::vector<NodeId> ComputeCandidatesCompiled(const Graph& g,
                                              const FilterPlan& f,
                                              uint64_t* seeded) {
  std::vector<NodeId> out;
  if (f.label() == kWildcardSymbol) {
    if (seeded != nullptr) *seeded += g.num_nodes();
    f.FilterAll(g.view(), out);
    return out;
  }
  const std::span<const NodeId> bucket = g.NodesWithLabel(f.label());
  if (seeded != nullptr) *seeded += bucket.size();
  f.FilterInto(g.view(), bucket, out);
  return out;
}

}  // namespace wqe::match
