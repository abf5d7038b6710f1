#ifndef WQE_GRAPH_BFS_H_
#define WQE_GRAPH_BFS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace wqe {

/// "Unreachable within the hop cap" sentinel distance.
inline constexpr uint32_t kInfDist = static_cast<uint32_t>(-1);

/// Reusable bounded breadth-first searcher over a frozen graph. Holds
/// epoch-stamped scratch arrays so repeated queries allocate nothing.
/// Distances follow edge direction (the valuation semantics of §2.1 use the
/// directed shortest path from h(u) to h(u')). Not thread-safe; create one
/// per thread.
class BoundedBfs {
 public:
  explicit BoundedBfs(const Graph& g);

  /// Directed distance from u to v, or kInfDist if it exceeds `cap`.
  /// Bidirectional expansion keeps frontiers small on hub-heavy graphs.
  uint32_t Distance(NodeId u, NodeId v, uint32_t cap);

  /// Visits every node w with dist(src, w) <= cap (following out-edges),
  /// invoking visit(w, dist) in BFS order. Includes src at distance 0. The
  /// visitor is a template parameter, so the per-node call inlines (these
  /// sweeps feed the matcher's ball memo and the star tables' spoke
  /// occurrences).
  template <typename Visit>
  void Forward(NodeId src, uint32_t cap, Visit&& visit) {
    Sweep<true>(src, cap, visit);
  }

  /// Visits every node w with dist(w, src) <= cap (following in-edges).
  template <typename Visit>
  void Backward(NodeId src, uint32_t cap, Visit&& visit) {
    Sweep<false>(src, cap, visit);
  }

  /// Visits every node within `cap` hops of src ignoring edge direction.
  template <typename Visit>
  void Undirected(NodeId src, uint32_t cap, Visit&& visit) {
    Undirected(std::span<const NodeId>(&src, 1), cap, visit);
  }

  /// Multi-source form: visits every node within `cap` undirected hops of
  /// some source, with its distance to the nearest one (sources at 0). Star
  /// tables sweep the augmented focus edge this way, from all viable centers
  /// and from all focus candidates.
  template <typename Visit>
  void Undirected(std::span<const NodeId> srcs, uint32_t cap, Visit&& visit);

  const Graph& graph() const { return g_; }

 private:
  template <bool kForward, typename Visit>
  void Sweep(NodeId src, uint32_t cap, Visit& visit);

  const Graph& g_;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> mark_fwd_, dist_fwd_;
  std::vector<uint32_t> mark_bwd_, dist_bwd_;
  std::vector<NodeId> queue_fwd_, queue_bwd_;
};

template <bool kForward, typename Visit>
void BoundedBfs::Sweep(NodeId src, uint32_t cap, Visit& visit) {
  ++epoch_;
  auto& mark = kForward ? mark_fwd_ : mark_bwd_;
  auto& dist = kForward ? dist_fwd_ : dist_bwd_;
  auto& queue = kForward ? queue_fwd_ : queue_bwd_;
  queue.clear();
  queue.push_back(src);
  mark[src] = epoch_;
  dist[src] = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    const NodeId x = queue[head];
    visit(x, dist[x]);
    if (dist[x] >= cap) continue;
    auto neighbors = kForward ? g_.out(x) : g_.in(x);
    for (NodeId y : neighbors) {
      if (mark[y] == epoch_) continue;
      mark[y] = epoch_;
      dist[y] = dist[x] + 1;
      queue.push_back(y);
    }
  }
}

template <typename Visit>
void BoundedBfs::Undirected(std::span<const NodeId> srcs, uint32_t cap,
                            Visit&& visit) {
  ++epoch_;
  auto& mark = mark_fwd_;
  auto& dist = dist_fwd_;
  auto& queue = queue_fwd_;
  queue.clear();
  for (NodeId src : srcs) {
    if (mark[src] == epoch_) continue;
    queue.push_back(src);
    mark[src] = epoch_;
    dist[src] = 0;
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const NodeId x = queue[head];
    visit(x, dist[x]);
    if (dist[x] >= cap) continue;
    for (auto neighbors : {g_.out(x), g_.in(x)}) {
      for (NodeId y : neighbors) {
        if (mark[y] == epoch_) continue;
        mark[y] = epoch_;
        dist[y] = dist[x] + 1;
        queue.push_back(y);
      }
    }
  }
}

}  // namespace wqe

#endif  // WQE_GRAPH_BFS_H_
