#include "exemplar/relevance.h"

#include <algorithm>

namespace wqe {

const char* RelevanceName(Relevance r) {
  switch (r) {
    case Relevance::kRM:
      return "RM";
    case Relevance::kIM:
      return "IM";
    case Relevance::kRC:
      return "RC";
    case Relevance::kIC:
      return "IC";
  }
  return "?";
}

Relevance RelevanceSets::StatusOf(NodeId v) const {
  auto in = [v](const std::vector<NodeId>& set) {
    return std::binary_search(set.begin(), set.end(), v);
  };
  if (in(rm)) return Relevance::kRM;
  if (in(im)) return Relevance::kIM;
  if (in(rc)) return Relevance::kRC;
  return Relevance::kIC;
}

RelevanceSets Classify(std::span<const NodeId> candidates,
                       std::span<const NodeId> matches, const RepResult& rep) {
  RelevanceSets sets;
  sets.num_candidates = candidates.size();
  size_t m = 0, r = 0;
  for (NodeId v : candidates) {
    while (m < matches.size() && matches[m] < v) ++m;
    while (r < rep.nodes.size() && rep.nodes[r] < v) ++r;
    const bool is_match = m < matches.size() && matches[m] == v;
    const bool is_rep = r < rep.nodes.size() && rep.nodes[r] == v;
    if (is_match && is_rep) {
      sets.rm.push_back(v);
      sets.rm_closeness_sum += rep.closeness[r];
    } else if (is_match) {
      sets.im.push_back(v);
    } else if (is_rep) {
      sets.rc.push_back(v);
    } else {
      sets.ic.push_back(v);
    }
  }
  return sets;
}

double TheoreticalOptimal(const RepResult& rep, size_t num_candidates) {
  if (num_candidates == 0) return 0;
  double total = 0;
  for (double cl : rep.closeness) total += cl;
  return total / static_cast<double>(num_candidates);
}

}  // namespace wqe
