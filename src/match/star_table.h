#ifndef WQE_MATCH_STAR_TABLE_H_
#define WQE_MATCH_STAR_TABLE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/timer.h"
#include "graph/bfs.h"
#include "match/filter_plan.h"
#include "match/star.h"

namespace wqe {

struct MatchStats;

namespace store {
class Serde;
}  // namespace store

/// Materialized star view T_i(G), kept as what Match (§5.2) reads of it: the
/// occurrence set of each role (center, spoke index, focus). Star-view
/// evaluation intersects the focus occurrences across stars to cut V_{u_o}
/// before exact verification; nothing reads the per-center rows of §2.3, so
/// they are never built. Relevance of focus occurrences (the v.stat flag of
/// §2.3) is kept by the evaluation layer's RelevanceSets — tables themselves
/// are relevance-free so the view cache can share them across chase steps
/// that only reclassify.
class StarTable {
 public:
  StarTable(StarQuery star, QNodeId focus) : star_(std::move(star)), focus_(focus) {}

  const StarQuery& star() const { return star_; }

  /// Focus occurrences (sorted, unique): the viable centers when the center
  /// is the focus, the focus spoke's occurrences, or else every focus
  /// candidate within the augmented bound of some viable center (none when
  /// the bound is 0). The first two are served from the set they equal, so
  /// the table, EntryCount and the star-views file hold them once.
  const std::vector<NodeId>& focus_occurrences() const {
    if (star_.center == focus_) return center_occ_;
    if (star_.focus_spoke >= 0) {
      return spoke_occ_[static_cast<size_t>(star_.focus_spoke)];
    }
    return focus_occ_;
  }

  /// The viable centers (sorted, unique). Tables are addressed by *role*
  /// (center / spoke index / focus), never by query node id: the view cache
  /// shares tables across rewrites whose node ids differ but whose star
  /// signatures — which fix the canonical spoke order — agree.
  const std::vector<NodeId>& center_occurrences() const { return center_occ_; }

  /// All matches of spoke `s` around some viable center (sorted, unique).
  const std::vector<NodeId>& spoke_occurrences(size_t s) const {
    return spoke_occ_[s];
  }

  /// Memory footprint in stored occurrence entries (cache accounting).
  size_t EntryCount() const {
    size_t n = center_occ_.size() + focus_occ_.size();
    for (const auto& occ : spoke_occ_) n += occ.size();
    return n;
  }

 private:
  friend class StarMaterializer;
  friend class store::Serde;  // binary snapshot encode/decode

  /// Whether the focus role has a set of its own (an augmented star, or a
  /// star without focus): focus_occ_ is stored only then.
  bool OwnsFocusOccurrences() const {
    return star_.center != focus_ && star_.focus_spoke < 0;
  }

  StarQuery star_;
  QNodeId focus_;
  std::vector<NodeId> focus_occ_;  // empty unless OwnsFocusOccurrences()
  std::vector<NodeId> center_occ_;
  std::vector<std::vector<NodeId>> spoke_occ_;  // parallel to star_.spokes
};

/// Builds star tables against a fixed graph. Holds BFS scratch; concurrent
/// Materialize calls on one instance are not allowed, but the build itself
/// fans out internally when num_threads > 1.
class StarMaterializer {
 public:
  explicit StarMaterializer(const Graph& g) : g_(g), bfs_(g) {}

  /// Workers for the per-center sweeps (0 = hardware concurrency, 1 =
  /// serial). Each slot accumulates its own spoke occurrences, which are
  /// merged into sorted sets, so tables are identical for every setting.
  void set_num_threads(size_t n) { num_threads_ = n; }

  /// Toggles the compiled match pipeline for the sweeps: per-star
  /// FilterPlans compiled once per Materialize replace the per-node
  /// interpreted candidate probes. Tables are identical either way.
  void set_use_pipeline(bool on) { use_pipeline_ = on; }

  /// Sink for the candidate-funnel counters (candidates_seeded/_filtered):
  /// table builds are where center candidates are actually seeded from label
  /// buckets and filtered by predicates, so the stage accounting lives here.
  /// Null (the default) disables it. The pointee must outlive this builder.
  void set_stats(MatchStats* stats) { stats_ = stats; }

  /// Arms a wall-clock deadline checked every kDeadlineCheckStride centers:
  /// Materialize throws DeadlineExceeded instead of finishing the table, so
  /// a huge star cannot blow past time_limit_seconds by a whole build pass.
  /// Null disarms (the default — index/cache prewarming runs unbounded).
  /// `d` must outlive the armed period; StarMatcher forwards its own.
  void set_deadline(const Deadline* d) { deadline_ = d; }

  /// Materializes T_i(G) for `star` of query `q`. A center candidate is
  /// viable when every spoke has a match in its bounded ball and, for a
  /// focus-augmented star, a focus candidate lies within the augmented
  /// bound. `plans`, when non-null, supplies `q`'s already-compiled filters
  /// (the matcher's plan memo holds them per rewrite); null compiles a local
  /// set — only relevant with the pipeline on.
  ///
  /// The augmented test is one lookup per center: the nodes within
  /// aug_bound undirected hops of some focus candidate come from a single
  /// multi-source sweep out of the focus candidates, run before the centers
  /// fan out and memoized per (focus filter, aug_bound) for this builder's
  /// lifetime. Undirected distance is symmetric and the sources count, so a
  /// center is marked exactly when a focus candidate lies within the bound.
  std::shared_ptr<const StarTable> Materialize(
      const PatternQuery& q, const StarQuery& star,
      const match::QueryFilterPlans* plans = nullptr);

 private:
  struct SpokeHits;

  /// Whether `w` is a candidate of query node `u`: the compiled filter when
  /// the pipeline is on (`plans` non-null; one merged tuple walk, no literal
  /// re-interpretation), the interpreted probe otherwise. Same conjunction,
  /// same tables.
  bool Admits(const PatternQuery& q, const match::QueryFilterPlans* plans,
              QNodeId u, NodeId w) const;

  /// The memoized focus-proximity marks for `q`'s focus filter and `bound`
  /// (indexed by NodeId; true = within `bound` undirected hops of a focus
  /// candidate). The reference stays valid until the next call.
  const std::vector<bool>& NearFocus(const PatternQuery& q, uint32_t bound,
                                     const match::QueryFilterPlans* plans);

  /// Sweeps center candidate `c`: for an augmented star, first its
  /// focus-proximity mark (`near_focus`, null otherwise), then one ball per
  /// spoke. Returns whether `c` is viable; only a viable center's spoke
  /// matches are added to `hits`.
  bool SweepCenter(const PatternQuery& q, const StarQuery& star, NodeId c,
                   BoundedBfs& bfs, const match::QueryFilterPlans* plans,
                   const std::vector<bool>* near_focus, SpokeHits& hits) const;

  const Graph& g_;
  BoundedBfs bfs_;
  size_t num_threads_ = 1;
  bool use_pipeline_ = true;
  MatchStats* stats_ = nullptr;
  const Deadline* deadline_ = nullptr;
  /// NearFocus memo, keyed by the focus filter's fingerprint and the bound;
  /// reset whole once it holds kMaxNearFocusSweeps entries.
  std::unordered_map<std::string, std::vector<bool>> near_focus_;
};

}  // namespace wqe

#endif  // WQE_MATCH_STAR_TABLE_H_
