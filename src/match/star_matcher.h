#ifndef WQE_MATCH_STAR_MATCHER_H_
#define WQE_MATCH_STAR_MATCHER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "match/candidate_set.h"
#include "match/matcher.h"
#include "match/star.h"
#include "match/star_table.h"
#include "match/view_cache.h"

namespace wqe {

namespace obs {
class Counter;
struct Observability;
}  // namespace obs

/// Counters for the optimization experiments.
struct StarEvalStats {
  uint64_t tables_built = 0;
  uint64_t cache_hits = 0;    // view-cache Gets that found the table
  uint64_t cache_misses = 0;  // view-cache Gets that did not
};

/// Star-view state of one evaluation: the decomposition, each star's cache
/// signature, and its resolved table (parallel vectors). Table entries may
/// be null when the state was resolved with materialize_missing = false.
struct StarEvalState {
  std::vector<StarQuery> stars;
  std::vector<std::string> signatures;
  std::vector<std::shared_ptr<const StarTable>> tables;
};

/// Star-view evaluation of Q(G) (procedure Match, §5.2):
///   1. decompose Q into a star view Q.S,
///   2. materialize (or fetch from the cache) each star table,
///   3. prune the focus candidates to the intersection of the stars' focus
///      occurrences, and every other query node likewise,
///   4. verify surviving candidates with the exact matcher, most-promising
///      first when a priority is supplied (the TA-style ordering — each
///      candidate's verification stops at its first witness valuation).
class StarMatcher {
 public:
  /// `cache` may be null (the AnsWnc / AnsWb ablations).
  StarMatcher(const Graph& g, DistanceIndex* dist, ViewCache* cache);

  /// Execution slots for candidate verification and table materialization
  /// (0 = hardware concurrency; 1 runs every probe on the calling thread).
  /// Candidates are sharded over the primary matcher's workers
  /// (Matcher::ShardProbes) and verdicts merged in candidate order, so
  /// Evaluate is byte-identical for every setting.
  void set_num_threads(size_t n);

  /// Mirrors table-build / verification / pipeline-stage counters into `o`'s
  /// registry (resolved once here, bumped lock-free per Evaluate). Null
  /// detaches.
  void set_observability(obs::Observability* o);

  /// Attaches the cross-request plan memo to the primary matcher, which
  /// hands it to its workers. Null detaches.
  void set_shared_plans(Matcher::SharedPlans* plans) {
    matcher_.set_shared_plans(plans);
  }

  /// Toggles the compiled staged match pipeline on the primary matcher (and
  /// so its workers) and the star materializer (on by default; off = the
  /// interpreted control arm). Answers are byte-identical either way.
  void set_use_pipeline(bool on);

  /// Arms a wall-clock deadline for Evaluate: table materialization and
  /// candidate verification check it every kDeadlineCheckStride items and
  /// throw DeadlineExceeded, so one long pass cannot blow far past
  /// time_limit_seconds. Null disarms (the default). `d` must outlive the
  /// armed period — ExecuteWithContext arms around one solver run and disarms
  /// on exit, keeping context construction (the root evaluation) unbounded.
  void set_deadline(const Deadline* d);

  struct Evaluation {
    std::vector<NodeId> matches;  // Q(G), sorted ascending
  };

  // Every entry point below takes the rewrite's key (= QueryKey::Of(q)),
  // which the chase renders once per rewrite; the short forms without one
  // render it themselves, once per call.

  /// Evaluates Q(G). `priority` (optional) orders candidate verification
  /// descending — pass cl(v, ℰ) to verify exemplar-close candidates first.
  Evaluation Evaluate(const PatternQuery& q, const QueryKey& key,
                      const std::function<double(NodeId)>* priority = nullptr);
  Evaluation Evaluate(const PatternQuery& q,
                      const std::function<double(NodeId)>* priority = nullptr) {
    return Evaluate(q, QueryKey::Of(q), priority);
  }

  /// The focus candidate set V_{u_o} as a pipeline selection vector:
  /// label-bucket seed + compiled predicate stage (or the interpreted scan
  /// when the pipeline is off). Bumps the match.stage.seeded/filtered
  /// funnel; a relax delta (ChaseContext::Evaluate) takes its candidates
  /// from here.
  match::CandidateSet FocusCandidates(const PatternQuery& q,
                                      const QueryKey& key);
  match::CandidateSet FocusCandidates(const PatternQuery& q) {
    return FocusCandidates(q, QueryKey::Of(q));
  }

  /// Decomposes `q` and resolves one table per star. Resolution order per
  /// star: (1) a table in `reuse` under the same signature — no cache
  /// traffic; (2) the view cache (Get when materializing, a scoreless Peek
  /// otherwise); (3) a fresh Materialize + cache Put, unless
  /// `materialize_missing` is false, which leaves the slot null instead
  /// (absent tables only weaken pruning, never correctness). Evaluate passes
  /// no `reuse` and materializes.
  std::shared_ptr<const StarEvalState> ResolveTables(
      const PatternQuery& q, const QueryKey& key, const StarEvalState* reuse,
      bool materialize_missing);
  std::shared_ptr<const StarEvalState> ResolveTables(
      const PatternQuery& q, const StarEvalState* reuse,
      bool materialize_missing) {
    return ResolveTables(q, QueryKey::Of(q), reuse, materialize_missing);
  }

  /// Per-query-node allowed sets from `state`'s tables: the intersection of
  /// each node's role occurrences (center / spoke / augmented focus) across
  /// the stars that mention it. Null tables contribute nothing (no filter).
  /// A nullopt entry means "unrestricted"; an engaged empty vector is a
  /// proven-empty candidate set.
  std::vector<std::optional<std::vector<NodeId>>> AllowedSets(
      const PatternQuery& q, const StarEvalState& state) const;

  /// Verifies `candidates` (any order; deduped by the caller) with the exact
  /// matcher restricted to `allowed`, most-promising first under `priority`,
  /// sharded through Matcher::ShardProbes. Returns the verified subset
  /// sorted ascending and bumps the match.focus_verified registry counter.
  std::vector<NodeId> VerifyCandidates(
      const PatternQuery& q, const QueryKey& key,
      std::vector<NodeId> candidates,
      const std::vector<std::optional<std::vector<NodeId>>>& allowed,
      const std::function<double(NodeId)>* priority);
  std::vector<NodeId> VerifyCandidates(
      const PatternQuery& q, std::vector<NodeId> candidates,
      const std::vector<std::optional<std::vector<NodeId>>>& allowed,
      const std::function<double(NodeId)>* priority) {
    return VerifyCandidates(q, QueryKey::Of(q), std::move(candidates),
                            allowed, priority);
  }

  StarEvalStats& stats() { return stats_; }
  Matcher& matcher() { return matcher_; }

 private:
  /// Mirrors the primary matcher's pipeline deltas since the last flush into
  /// the registry: plan-memo traffic (match.plan.*), ball-memo traffic
  /// (match.ball.*), forward-check cuts (match.forward_prunes) and the
  /// candidate-funnel stage counts
  /// (match.stage.seeded/.filtered — table builds and focus scans both
  /// accumulate into the matcher's stats).
  void FlushPlanCounters();

  Matcher matcher_;
  StarMaterializer materializer_;
  ViewCache* cache_;
  StarEvalStats stats_;
  size_t num_threads_ = 1;
  bool use_pipeline_ = true;
  const Deadline* deadline_ = nullptr;

  obs::Counter* c_tables_built_ = nullptr;
  obs::Counter* c_candidates_ = nullptr;
  obs::Counter* c_verified_ = nullptr;
  obs::Counter* c_plan_compiles_ = nullptr;
  obs::Counter* c_plan_hits_ = nullptr;
  obs::Counter* c_stage_seeded_ = nullptr;
  obs::Counter* c_stage_filtered_ = nullptr;
  obs::Counter* c_stage_verified_ = nullptr;
  obs::Counter* c_ball_hits_ = nullptr;
  obs::Counter* c_ball_fills_ = nullptr;
  obs::Counter* c_forward_prunes_ = nullptr;
  // Stats snapshots behind the registry deltas (counters are monotone).
  uint64_t plan_builds_seen_ = 0;
  uint64_t plan_hits_seen_ = 0;
  uint64_t stage_seeded_seen_ = 0;
  uint64_t stage_filtered_seen_ = 0;
  uint64_t ball_hits_seen_ = 0;
  uint64_t ball_fills_seen_ = 0;
  uint64_t forward_prunes_seen_ = 0;
};

}  // namespace wqe

#endif  // WQE_MATCH_STAR_MATCHER_H_
