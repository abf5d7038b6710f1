#ifndef WQE_MATCH_BALL_H_
#define WQE_MATCH_BALL_H_

#include <cstdint>

#include "graph/bfs.h"

namespace wqe::match {

/// Which bounded ball around a center: nodes w with dist(center, w) <= bound
/// (kOut) or dist(w, center) <= bound (kIn).
enum class BallDir : uint8_t { kOut, kIn };

/// The one ball ∩ filter kernel of the match layer: sweeps the bounded ball
/// around `center` and calls emit(w) for every node other than the center
/// that `admits(w)` accepts, in BFS order. The matcher's filtered-ball memo
/// and the star materializer's spoke sweeps both go through here.
template <typename Admits, typename Emit>
void ForEachFilteredBallNode(BoundedBfs& bfs, NodeId center, uint32_t bound,
                             BallDir dir, Admits&& admits, Emit&& emit) {
  auto visit = [&](NodeId w, uint32_t) {
    if (w != center && admits(w)) emit(w);
  };
  if (dir == BallDir::kOut) {
    bfs.Forward(center, bound, visit);
  } else {
    bfs.Backward(center, bound, visit);
  }
}

}  // namespace wqe::match

#endif  // WQE_MATCH_BALL_H_
