#ifndef WQE_MATCH_CANDIDATE_SET_H_
#define WQE_MATCH_CANDIDATE_SET_H_

#include <span>
#include <vector>

#include "graph/graph_view.h"

namespace wqe::match {

/// Sorted selection vector of graph nodes — the working set that flows
/// between stages of the match pipeline (label seed → predicate filter →
/// exact verification) and between the chase layer's delta-evaluation steps.
/// The set-algebra kernels live here and reserve their outputs.
class CandidateSet {
 public:
  CandidateSet() = default;

  /// Wraps an ascending, duplicate-free vector (the invariant every pipeline
  /// stage and graph accessor already produces).
  static CandidateSet FromSorted(std::vector<NodeId> nodes) {
    CandidateSet set;
    set.nodes_ = std::move(nodes);
    return set;
  }

  const std::vector<NodeId>& nodes() const { return nodes_; }
  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

  /// Moves the selection vector out.
  std::vector<NodeId> Take() { return std::move(nodes_); }

  // Sorted-set kernels over ascending unique id vectors. All reserve their
  // output capacity up front (a \ b and a ∪ b are at most |a| resp.
  // |a| + |b| long), so growth never reallocates mid-merge.
  static std::vector<NodeId> Difference(std::span<const NodeId> a,
                                        std::span<const NodeId> b);
  static std::vector<NodeId> Union(std::span<const NodeId> a,
                                   std::span<const NodeId> b);
  static std::vector<NodeId> Intersection(std::span<const NodeId> a,
                                          std::span<const NodeId> b);

 private:
  std::vector<NodeId> nodes_;
};

}  // namespace wqe::match

#endif  // WQE_MATCH_CANDIDATE_SET_H_
