#include "match/star_table.h"

#include <algorithm>
#include <memory>

#include "common/thread_pool.h"
#include "match/ball.h"
#include "match/candidates.h"
#include "match/matcher.h"

namespace wqe {

const StarRow* StarTable::RowOfCenter(NodeId v) const {
  auto it = row_of_center_.find(v);
  return it == row_of_center_.end() ? nullptr : &rows_[it->second];
}

bool StarMaterializer::BuildRow(const PatternQuery& q, const StarQuery& star,
                                NodeId c, BoundedBfs& bfs,
                                const match::QueryFilterPlans* plans,
                                StarRow& row) const {
  row.center = c;
  row.spoke_matches.resize(star.spokes.size());
  bool viable = true;

  // Per-node candidate probe: the compiled filter when the pipeline is on
  // (one merged tuple walk per visited node, no literal re-interpretation),
  // the interpreted path otherwise. Same conjunction, same rows.
  auto admits = [&](QNodeId u, NodeId w) {
    return plans != nullptr ? plans->at(u).Admits(g_.view(), w)
                            : IsCandidate(g_, q, u, w);
  };

  for (size_t s = 0; s < star.spokes.size() && viable; ++s) {
    const StarSpoke& spoke = star.spokes[s];
    auto& cell = row.spoke_matches[s];
    match::ForEachFilteredBallNode(
        bfs, c, spoke.bound,
        spoke.outgoing ? match::BallDir::kOut : match::BallDir::kIn,
        /*include_center=*/false,
        [&](NodeId w) { return admits(spoke.other, w); },
        [&](NodeId w, uint32_t d) { cell.push_back({w, d}); });
    if (cell.empty()) viable = false;
  }
  if (!viable) return false;

  if (!star.contains_focus && star.aug_bound > 0) {
    match::ForEachFilteredBallNode(
        bfs, c, star.aug_bound, match::BallDir::kUndirected,
        /*include_center=*/true,
        [&](NodeId w) { return admits(q.focus(), w); },
        [&](NodeId w, uint32_t d) { row.focus_matches.push_back({w, d}); });
    if (row.focus_matches.empty()) return false;
  }
  return true;
}

std::shared_ptr<const StarTable> StarMaterializer::Materialize(
    const PatternQuery& q, const StarQuery& star,
    const match::QueryFilterPlans* plans) {
  auto table = std::make_shared<StarTable>(star, q.focus());

  // Every row probe below shares one compiled filter set: the caller's
  // memoized plans when provided, a local compilation otherwise (one per
  // table build, amortized across all rows).
  match::QueryFilterPlans local_plans;
  const match::QueryFilterPlans* plans_ptr = nullptr;
  std::vector<NodeId> centers;
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

  // Rows are built per center candidate — the embarrassingly parallel part —
  // into index-addressed slots, then assembled serially in center order so
  // the table is identical for every thread count.
  const size_t threads = ResolveThreads(num_threads_);
  std::vector<StarRow> built(centers.size());
  std::vector<uint8_t> viable(centers.size(), 0);
  // Deadline checks ride the row loop at a fixed stride: one row is a few
  // bounded BFS passes, so the overshoot past an armed deadline is at most
  // kDeadlineCheckStride rows per participant, never a whole table. In the
  // parallel path ParallelFor abandons the remaining blocks and rethrows the
  // DeadlineExceeded on this thread; the half-built table is discarded here
  // and never reaches the view cache.
  if (threads <= 1 || centers.size() <= 1) {
    for (size_t i = 0; i < centers.size(); ++i) {
      MaybeThrowIfExpired(deadline_, i);
      viable[i] =
          BuildRow(q, star, centers[i], bfs_, plans_ptr, built[i]) ? 1 : 0;
    }
  } else {
    PerThread<BoundedBfs> scratch(threads, [this] {
      return std::make_unique<BoundedBfs>(g_);
    });
    ParallelFor(threads, 0, centers.size(), /*grain=*/16,
                [&](size_t i, size_t slot) {
                  MaybeThrowIfExpired(deadline_, i);
                  BoundedBfs& bfs = slot == 0 ? bfs_ : scratch.at(slot);
                  viable[i] =
                      BuildRow(q, star, centers[i], bfs, plans_ptr, built[i])
                          ? 1
                          : 0;
                });
  }

  for (size_t i = 0; i < centers.size(); ++i) {
    if (!viable[i]) continue;
    StarRow& row = built[i];
    table->row_of_center_.emplace(row.center, table->rows_.size());
    table->entry_count_ += 1 + row.focus_matches.size();
    for (const auto& cell : row.spoke_matches) table->entry_count_ += cell.size();
    table->rows_.push_back(std::move(row));
  }

  // Occurrence sets per role (center, spoke index): tables must not refer
  // to query node ids, which vary across the rewrites sharing this table.
  auto sorted_unique = [](std::vector<NodeId> nodes) {
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    return nodes;
  };

  {
    std::vector<NodeId> centers_seen;
    centers_seen.reserve(table->rows_.size());
    for (const StarRow& row : table->rows_) centers_seen.push_back(row.center);
    table->center_occ_ = sorted_unique(std::move(centers_seen));
  }
  table->spoke_occ_.resize(star.spokes.size());
  for (size_t s = 0; s < star.spokes.size(); ++s) {
    std::vector<NodeId> seen;
    for (const StarRow& row : table->rows_) {
      for (const SpokeMatch& m : row.spoke_matches[s]) seen.push_back(m.node);
    }
    table->spoke_occ_[s] = sorted_unique(std::move(seen));
  }

  // Focus occurrences: center itself, the focus spoke, or augmented matches.
  std::vector<NodeId> focus_seen;
  if (star.center == q.focus()) {
    for (const StarRow& row : table->rows_) focus_seen.push_back(row.center);
  } else if (star.focus_spoke >= 0) {
    const size_t s = static_cast<size_t>(star.focus_spoke);
    for (const StarRow& row : table->rows_) {
      for (const SpokeMatch& m : row.spoke_matches[s]) focus_seen.push_back(m.node);
    }
  } else {
    for (const StarRow& row : table->rows_) {
      for (const SpokeMatch& m : row.focus_matches) focus_seen.push_back(m.node);
    }
  }
  std::sort(focus_seen.begin(), focus_seen.end());
  focus_seen.erase(std::unique(focus_seen.begin(), focus_seen.end()),
                   focus_seen.end());
  table->focus_occ_ = std::move(focus_seen);
  table->RebuildFocusBits();

  return table;
}

}  // namespace wqe
