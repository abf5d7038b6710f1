#include "match/candidate_set.h"

#include <algorithm>

namespace wqe::match {

std::vector<NodeId> CandidateSet::Difference(std::span<const NodeId> a,
                                             std::span<const NodeId> b) {
  std::vector<NodeId> out;
  out.reserve(a.size());
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

std::vector<NodeId> CandidateSet::Union(std::span<const NodeId> a,
                                        std::span<const NodeId> b) {
  std::vector<NodeId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

std::vector<NodeId> CandidateSet::Intersection(std::span<const NodeId> a,
                                               std::span<const NodeId> b) {
  std::vector<NodeId> out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace wqe::match
