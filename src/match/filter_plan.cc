#include "match/filter_plan.h"

#include <algorithm>
#include <cstring>
#include <tuple>

namespace wqe::match {

namespace {

/// Canonical key of one literal: "attr#op#value". The value renders as "_"
/// for wildcards, the numeric text for numbers, and "s<symbol>" for interned
/// strings — the exact format star signatures have always used, so plan
/// fingerprints and (persisted) star-view cache keys stay compatible.
std::string LiteralKey(const Literal& l) {
  std::string key = std::to_string(l.attr) + "#" +
                    std::to_string(static_cast<int>(l.op)) + "#";
  if (l.constant.is_null()) {
    key += "_";
  } else if (l.constant.is_num()) {
    key += std::to_string(l.constant.num());
  } else {
    key += "s" + std::to_string(l.constant.str());
  }
  return key;
}

/// Appends the raw bytes of `x` (exact-key encoding).
template <typename T>
void AppendBytes(std::string& out, const T& x) {
  out.append(reinterpret_cast<const char*>(&x), sizeof(T));
}

/// One literal of FilterPlan::exact_key: attr, op, value kind, payload (the
/// double's bits for a number, the symbol id for a string, 0 for ⊥).
using ExactLiteral = std::tuple<AttrId, uint8_t, uint8_t, uint64_t>;

ExactLiteral ExactLiteralOf(const Literal& l) {
  uint64_t payload = 0;
  if (l.constant.is_num()) {
    const double num = l.constant.num() == 0 ? 0.0 : l.constant.num();
    std::memcpy(&payload, &num, sizeof(num));
  } else if (l.constant.is_str()) {
    payload = l.constant.str();
  }
  return {l.attr, static_cast<uint8_t>(l.op),
          static_cast<uint8_t>(l.constant.kind()), payload};
}

}  // namespace

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
  std::vector<ExactLiteral> exact;
  exact.reserve(node.literals.size());
  for (const Literal& l : node.literals) exact.push_back(ExactLiteralOf(l));
  std::sort(exact.begin(), exact.end());
  AppendBytes(plan.exact_key_, node.label);
  for (const auto& [attr, op, kind, payload] : exact) {
    AppendBytes(plan.exact_key_, attr);
    AppendBytes(plan.exact_key_, op);
    AppendBytes(plan.exact_key_, kind);
    AppendBytes(plan.exact_key_, payload);
  }

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
