#include "graph/bfs.h"

#include <algorithm>
#include <cassert>

namespace wqe {

BoundedBfs::BoundedBfs(const Graph& g) : g_(g) {
  assert(g.finalized());
  mark_fwd_.assign(g.num_nodes(), 0);
  dist_fwd_.assign(g.num_nodes(), 0);
  mark_bwd_.assign(g.num_nodes(), 0);
  dist_bwd_.assign(g.num_nodes(), 0);
}

uint32_t BoundedBfs::Distance(NodeId u, NodeId v, uint32_t cap) {
  if (u == v) return 0;
  if (cap == 0) return kInfDist;
  ++epoch_;

  // Meet-in-the-middle: any u→v path of length d <= cap has a node at
  // forward depth <= ceil(cap/2) that is also at backward depth
  // <= floor(cap/2) from v. Expanding both balls bounds frontier blow-up on
  // hub-heavy graphs compared to a one-sided sweep.
  const uint32_t fcap = (cap + 1) / 2;
  const uint32_t bcap = cap / 2;

  queue_fwd_.clear();
  queue_fwd_.push_back(u);
  mark_fwd_[u] = epoch_;
  dist_fwd_[u] = 0;
  for (size_t head = 0; head < queue_fwd_.size(); ++head) {
    NodeId x = queue_fwd_[head];
    if (dist_fwd_[x] >= fcap) continue;
    for (NodeId y : g_.out(x)) {
      if (mark_fwd_[y] == epoch_) continue;
      mark_fwd_[y] = epoch_;
      dist_fwd_[y] = dist_fwd_[x] + 1;
      queue_fwd_.push_back(y);
    }
  }

  uint32_t best = kInfDist;
  queue_bwd_.clear();
  queue_bwd_.push_back(v);
  mark_bwd_[v] = epoch_;
  dist_bwd_[v] = 0;
  if (mark_fwd_[v] == epoch_) best = dist_fwd_[v];
  for (size_t head = 0; head < queue_bwd_.size(); ++head) {
    NodeId x = queue_bwd_[head];
    if (dist_bwd_[x] >= bcap) continue;
    for (NodeId y : g_.in(x)) {
      if (mark_bwd_[y] == epoch_) continue;
      mark_bwd_[y] = epoch_;
      dist_bwd_[y] = dist_bwd_[x] + 1;
      queue_bwd_.push_back(y);
      if (mark_fwd_[y] == epoch_) {
        best = std::min(best, dist_fwd_[y] + dist_bwd_[y]);
      }
    }
  }
  return best <= cap ? best : kInfDist;
}

}  // namespace wqe
