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
  while (m < matches.size() && r < rep.nodes.size()) {
    if (matches[m] == rep.nodes[r]) {
      sets.rm.push_back(matches[m++]);
      sets.rm_closeness_sum += rep.closeness[r++];
    } else if (matches[m] < rep.nodes[r]) {
      sets.im.push_back(matches[m++]);
    } else {
      sets.rc.push_back(rep.nodes[r++]);
    }
  }
  sets.im.insert(sets.im.end(), matches.begin() + m, matches.end());
  sets.rc.insert(sets.rc.end(), rep.nodes.begin() + r, rep.nodes.end());
  return sets;
}

double TheoreticalOptimal(const RepResult& rep, size_t num_candidates) {
  if (num_candidates == 0) return 0;
  double total = 0;
  for (double cl : rep.closeness) total += cl;
  return total / static_cast<double>(num_candidates);
}

}  // namespace wqe
