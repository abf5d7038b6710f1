#ifndef WQE_MATCH_BALL_H_
#define WQE_MATCH_BALL_H_

#include <cstdint>

#include "graph/bfs.h"

namespace wqe::match {

/// Which bounded ball around a center: nodes w with dist(center, w) <= bound
/// (kOut), dist(w, center) <= bound (kIn), or within bound hops ignoring
/// edge direction (kUndirected, the star views' augmented focus edge).
enum class BallDir : uint8_t { kOut, kIn, kUndirected };

/// The one ball ∩ filter kernel of the match layer: sweeps the bounded ball
/// around `center` and calls emit(w, dist) for every node `admits(w)`
/// accepts, in BFS order. `include_center` decides whether the center itself
/// (distance 0) is offered to the filter. The matcher's filtered-ball memo
/// and the star materializer's rows both go through here.
template <typename Admits, typename Emit>
void ForEachFilteredBallNode(BoundedBfs& bfs, NodeId center, uint32_t bound,
                             BallDir dir, bool include_center,
                             Admits&& admits, Emit&& emit) {
  auto visit = [&](NodeId w, uint32_t d) {
    if ((include_center || w != center) && admits(w)) emit(w, d);
  };
  switch (dir) {
    case BallDir::kOut:
      bfs.Forward(center, bound, visit);
      break;
    case BallDir::kIn:
      bfs.Backward(center, bound, visit);
      break;
    case BallDir::kUndirected:
      bfs.Undirected(center, bound, visit);
      break;
  }
}

}  // namespace wqe::match

#endif  // WQE_MATCH_BALL_H_
