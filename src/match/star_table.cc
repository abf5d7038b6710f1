#include "match/star_table.h"

#include <algorithm>
#include <memory>

#include "common/thread_pool.h"
#include "match/ball.h"
#include "match/candidates.h"
#include "match/matcher.h"

namespace wqe {

/// One execution slot's accumulators for a table build: the spoke matches of
/// the center being swept (spoke after spoke), and the matches per spoke of
/// every viable center this slot has swept so far.
struct StarMaterializer::SpokeHits {
  explicit SpokeHits(size_t num_spokes) : per_spoke(num_spokes) {}

  std::vector<NodeId> row;
  std::vector<size_t> ends;  // end of each spoke's segment of `row`
  std::vector<std::vector<NodeId>> per_spoke;
};

namespace {

/// Bound on the NearFocus memo: |V| bits per entry.
constexpr size_t kMaxNearFocusSweeps = 64;

void SortUnique(std::vector<NodeId>& nodes) {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
}

}  // namespace

bool StarMaterializer::Admits(const PatternQuery& q,
                              const match::QueryFilterPlans* plans, QNodeId u,
                              NodeId w) const {
  return plans != nullptr ? plans->at(u).Admits(g_.view(), w)
                          : IsCandidate(g_, q, u, w);
}

const std::vector<bool>& StarMaterializer::NearFocus(
    const PatternQuery& q, uint32_t bound,
    const match::QueryFilterPlans* plans) {
  const QNodeId focus = q.focus();
  std::string key = plans != nullptr
                        ? plans->at(focus).fingerprint()
                        : match::FilterPlan::NodeFingerprint(q.node(focus));
  key += '@';
  key += std::to_string(bound);
  if (auto it = near_focus_.find(key); it != near_focus_.end()) {
    return it->second;
  }
  if (near_focus_.size() >= kMaxNearFocusSweeps) near_focus_.clear();
  // Candidate enumeration only: no funnel counters, these are not centers.
  const std::vector<NodeId> sources =
      plans != nullptr
          ? match::ComputeCandidatesCompiled(g_, plans->at(focus))
          : ComputeCandidates(g_, q, focus);
  std::vector<bool> near(g_.num_nodes(), false);
  bfs_.Undirected(std::span<const NodeId>(sources), bound,
                  [&](NodeId w, uint32_t) { near[w] = true; });
  return near_focus_.emplace(std::move(key), std::move(near)).first->second;
}

bool StarMaterializer::SweepCenter(const PatternQuery& q, const StarQuery& star,
                                   NodeId c, BoundedBfs& bfs,
                                   const match::QueryFilterPlans* plans,
                                   const std::vector<bool>* near_focus,
                                   SpokeHits& hits) const {
  if (near_focus != nullptr && !(*near_focus)[c]) return false;
  // Spokes are swept per center: a spoke's occurrences are the matches in
  // the ball of a *viable* center, excluding that center only. One sweep
  // from all centers would see a center that lies in another's spoke ball at
  // distance 0, and a center reached back through a cycle.
  hits.row.clear();
  hits.ends.clear();
  for (const StarSpoke& spoke : star.spokes) {
    const size_t begin = hits.row.size();
    match::ForEachFilteredBallNode(
        bfs, c, spoke.bound,
        spoke.outgoing ? match::BallDir::kOut : match::BallDir::kIn,
        [&](NodeId w) { return Admits(q, plans, spoke.other, w); },
        [&](NodeId w) { hits.row.push_back(w); });
    if (hits.row.size() == begin) return false;
    hits.ends.push_back(hits.row.size());
  }

  size_t begin = 0;
  for (size_t s = 0; s < hits.ends.size(); ++s) {
    hits.per_spoke[s].insert(hits.per_spoke[s].end(), hits.row.begin() + begin,
                             hits.row.begin() + hits.ends[s]);
    begin = hits.ends[s];
  }
  return true;
}

std::shared_ptr<const StarTable> StarMaterializer::Materialize(
    const PatternQuery& q, const StarQuery& star,
    const match::QueryFilterPlans* plans) {
  auto table = std::make_shared<StarTable>(star, q.focus());

  // Every probe below shares one compiled filter set: the caller's memoized
  // plans when provided, a local compilation otherwise (one per table build,
  // amortized across all centers).
  match::QueryFilterPlans local_plans;
  const match::QueryFilterPlans* plans_ptr = nullptr;
  std::vector<NodeId> centers;  // ascending, on both paths
  uint64_t seeded = 0;
  if (use_pipeline_) {
    if (plans == nullptr) {
      local_plans = match::QueryFilterPlans::Compile(q);
      plans = &local_plans;
    }
    plans_ptr = plans;
    centers =
        match::ComputeCandidatesCompiled(g_, plans->at(star.center), &seeded);
  } else {
    const QueryNode& center = q.node(star.center);
    seeded = center.label == kWildcardSymbol
                 ? g_.num_nodes()
                 : g_.NodesWithLabel(center.label).size();
    centers = ComputeCandidates(g_, q, star.center);
  }
  if (stats_ != nullptr) {
    stats_->candidates_seeded += seeded;
    stats_->candidates_filtered += centers.size();
  }

  // Centers are swept independently — the embarrassingly parallel part. A
  // viability flag per center index plus per-slot spoke accumulators (merged
  // into sorted sets below) make the table identical for every thread
  // count; slot 0 sweeps with this builder's own BFS scratch. Deadline
  // checks ride the center loop at a fixed stride: one center is a few
  // bounded BFS passes, so the overshoot past an armed deadline is at most
  // kDeadlineCheckStride centers per participant, never a whole table.
  // ParallelFor abandons the remaining blocks and rethrows the
  // DeadlineExceeded on this thread; the half-built table is discarded here
  // and never reaches the view cache.
  const std::vector<bool>* near_focus =
      !star.contains_focus && star.aug_bound > 0 && !centers.empty()
          ? &NearFocus(q, star.aug_bound, plans_ptr)
          : nullptr;
  const size_t threads = ResolveThreads(num_threads_);
  const size_t num_spokes = star.spokes.size();
  PerThread<BoundedBfs> scratch(threads, [this] {
    return std::make_unique<BoundedBfs>(g_);
  });
  PerThread<SpokeHits> hits(threads, [num_spokes] {
    return std::make_unique<SpokeHits>(num_spokes);
  });
  std::vector<uint8_t> viable(centers.size(), 0);
  ParallelFor(threads, 0, centers.size(), /*grain=*/16,
              [&](size_t i, size_t slot) {
                MaybeThrowIfExpired(deadline_, i);
                BoundedBfs& bfs = slot == 0 ? bfs_ : scratch.at(slot);
                viable[i] = SweepCenter(q, star, centers[i], bfs, plans_ptr,
                                        near_focus, hits.at(slot));
              });
  // Slot order; the first slot that did work hands its sets over whole.
  table->spoke_occ_.resize(num_spokes);
  for (size_t slot = 0; slot < threads; ++slot) {
    SpokeHits* h = hits.created(slot);
    if (h == nullptr) continue;
    for (size_t s = 0; s < num_spokes; ++s) {
      std::vector<NodeId>& occ = table->spoke_occ_[s];
      if (occ.empty()) {
        occ = std::move(h->per_spoke[s]);
      } else {
        occ.insert(occ.end(), h->per_spoke[s].begin(), h->per_spoke[s].end());
      }
    }
  }
  for (auto& occ : table->spoke_occ_) SortUnique(occ);
  for (size_t i = 0; i < centers.size(); ++i) {
    if (viable[i]) table->center_occ_.push_back(centers[i]);
  }

  // Focus occurrences of an augmented star: the focus candidates within the
  // augmented bound of some viable center — one multi-source sweep from all
  // of them, centers included. The center and the focus spoke serve the
  // other shapes' focus role as they are.
  if (table->OwnsFocusOccurrences() && star.aug_bound > 0) {
    auto& focus_occ = table->focus_occ_;
    bfs_.Undirected(std::span<const NodeId>(table->center_occ_),
                    star.aug_bound, [&](NodeId w, uint32_t) {
                      if (Admits(q, plans_ptr, q.focus(), w)) {
                        focus_occ.push_back(w);
                      }
                    });
    std::sort(focus_occ.begin(), focus_occ.end());  // BFS order; no repeats
  }
  return table;
}

}  // namespace wqe
