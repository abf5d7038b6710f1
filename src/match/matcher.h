#ifndef WQE_MATCH_MATCHER_H_
#define WQE_MATCH_MATCHER_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/bfs.h"
#include "graph/distance_index.h"
#include "graph/graph.h"
#include "match/candidates.h"
#include "match/filter_plan.h"
#include "query/query.h"

namespace wqe {

/// Counters exposed for the efficiency experiments.
struct MatchStats {
  uint64_t focus_verifications = 0;  // focus candidates tested
  uint64_t node_expansions = 0;      // backtracking states visited
  uint64_t plan_builds = 0;          // match plans compiled
  uint64_t plan_cache_hits = 0;      // plans reused via the fingerprint memo
  uint64_t candidates_seeded = 0;    // label-bucket seeds into the pipeline
  uint64_t candidates_filtered = 0;  // survivors of the predicate stage
  uint64_t ball_hits = 0;            // Extend steps served by the ball memo
  uint64_t ball_fills = 0;           // filtered balls swept into the memo
  uint64_t ball_evictions = 0;       // whole-memo resets at the cell budget
  uint64_t forward_prunes = 0;       // candidates cut by an empty later ball
  uint64_t projection_states = 0;    // node_expansions of Project searches

  /// Folds another thread's counters into this one (ordered reductions after
  /// parallel verification; all counters are commutative sums).
  void Merge(const MatchStats& other) {
    focus_verifications += other.focus_verifications;
    node_expansions += other.node_expansions;
    plan_builds += other.plan_builds;
    plan_cache_hits += other.plan_cache_hits;
    candidates_seeded += other.candidates_seeded;
    candidates_filtered += other.candidates_filtered;
    ball_hits += other.ball_hits;
    ball_fills += other.ball_fills;
    ball_evictions += other.ball_evictions;
    forward_prunes += other.forward_prunes;
    projection_states += other.projection_states;
  }
};

/// Exact evaluator for pattern queries under the extended P-homomorphism
/// semantics of §2.1: an injective valuation h maps query nodes to
/// candidates with dist(h(u), h(u')) <= L_Q(e) for every pattern edge
/// e = (u, u'). Subgraph isomorphism is the b_m = 1 special case.
///
/// The search assigns active query nodes in BFS order from the focus; each
/// new node draws its candidates from the bounded ball around an
/// already-assigned pattern neighbor, then checks every other assigned
/// neighbor through the distance index.
///
/// The search is forward-checked: a candidate v of node u is skipped when a
/// later step anchored on u has an empty filtered ball around v, since that
/// step could never be assigned below v (probe entry checks the steps
/// anchored on the focus the same way). Only candidates that lead to no
/// complete valuation are skipped and the plan order is kept, so verdicts
/// and the order of enumerated valuations are those of the plain search.
///
/// The filtered ball of a step depends only on the graph, the step node's
/// filter, the anchor edge's bound and direction, and the anchor's match —
/// not on the rewrite. Rewrites of one chase share most node filters, so
/// each matcher memoizes these balls (the admitted nodes in BFS order) and
/// sweeps a ball once instead of once per probe. The memo holds a fixed
/// cell budget derived from the graph size and is reset whole, only between
/// top-level probes, when it is over budget.
///
/// Candidate filtering runs one of two ways, byte-identical in output:
///  - pipeline on (the default): every per-node probe goes through the
///    query's compiled FilterPlans (label stage + one merged tuple walk),
///    and focus candidates are produced stage-by-stage (label-bucket seed →
///    batch predicate filter) over a selection vector;
///  - pipeline off: the legacy interpreted IsCandidate / ComputeCandidates
///    path (the abl_match_pipeline control arm).
class Matcher {
 public:
  class SharedPlans;

  Matcher(const Graph& g, DistanceIndex* dist);

  /// Attaches a cross-matcher plan memo (may be null to detach), to this
  /// matcher and its workers. The memo is thread-safe, so matchers serving
  /// concurrent requests against the same frozen graph can share it: a query
  /// shape planned by any request is never re-planned by another. The
  /// pointee must outlive this matcher.
  void set_shared_plans(SharedPlans* plans);

  /// Toggles the compiled staged pipeline on this matcher and its workers
  /// (on by default; off = the legacy per-node interpreted path). Answers
  /// are identical either way.
  void set_use_pipeline(bool on);
  bool use_pipeline() const { return use_pipeline_; }

  /// Runs probe(m, i) for every i in [0, n) through ParallelFor over at most
  /// `num_threads` slots (0 = hardware concurrency). Slot 0 probes with this
  /// matcher; slot k >= 1 with this matcher's k-th worker, created on first
  /// use over the same frozen graph and distance index with its own BFS
  /// scratch and ball memo, inheriting the plan memo and pipeline setting,
  /// and kept for later calls. Worker stats are folded into stats() in slot
  /// order when the loop ends (also when a probe throws). `probe` must write
  /// its result to an index-addressed slot, so the outcome is the same for
  /// every thread count.
  void ShardProbes(size_t num_threads, size_t n, size_t grain,
                   const std::function<void(Matcher& m, size_t i)>& probe);

  /// The answer Q(G): all matches of the focus u_o, in candidate order. The
  /// focus candidates are probed through ShardProbes against one plan.
  std::vector<NodeId> Answer(const PatternQuery& q, size_t num_threads = 1);

  /// The focus candidate set V_{u_o}, sorted ascending: label-bucket seed +
  /// compiled predicate stage when the pipeline is on, the interpreted
  /// ComputeCandidates scan otherwise. Bumps candidates_seeded/_filtered.
  std::vector<NodeId> FocusCandidates(const PatternQuery& q,
                                      const QueryKey& key);

  /// Whether some valuation maps the focus to `v`. `key` must be
  /// QueryKey::Of(q).
  bool IsMatch(const PatternQuery& q, const QueryKey& key, NodeId v);

  /// Identity of one step's candidate ball, up to the anchor's match: the
  /// step node's filter fingerprint, the anchor edge's bound and direction.
  /// Hashed once when the plan is built.
  struct BallKey {
    std::string filter;  // FilterPlan::fingerprint of the step node
    uint32_t bound = 0;
    bool outgoing = true;
    size_t hash = 0;

    friend bool operator==(const BallKey& a, const BallKey& b) {
      return a.bound == b.bound && a.outgoing == b.outgoing &&
             a.filter == b.filter;
    }
  };

  struct PlanStep {
    QNodeId node = kNoQNode;    // query node to assign
    QNodeId anchor = kNoQNode;  // already-assigned neighbor to expand from
    uint32_t anchor_bound = 0;  // bound of the anchor edge
    bool anchor_outgoing = true;  // true: anchor -> node; false: node -> anchor
    BallKey ball;                 // memo key of the anchor ball
    // Other edges from `node` to already-assigned nodes (checked via dist).
    struct Check {
      QNodeId other;
      uint32_t bound;
      bool outgoing;  // true: edge node -> other
    };
    std::vector<Check> checks;
    /// Later steps anchored on `node`: a candidate whose filtered ball is
    /// empty for one of them is skipped (forward checking).
    std::vector<uint32_t> dependents;
  };

  /// One compiled match plan: the BFS assignment order plus the per-node
  /// filter plans, built together once per query fingerprint and shared
  /// immutably through SharedPlans.
  struct MatchPlan {
    std::vector<PlanStep> steps;
    /// Steps anchored on the focus, checked once at probe entry.
    std::vector<uint32_t> focus_dependents;
    match::QueryFilterPlans filters;
    /// Process-unique serial (never reused, 0 = none): lets a matcher keep
    /// its resolution of the steps' ball keys across the probes of a batch.
    uint64_t serial = 0;
  };

  /// The plan for `q`, memoized by `key` (= QueryKey::Of(q), rendered once
  /// by the caller): Answer / star-view verification run one probe per
  /// focus candidate against the *same* rewrite, so consecutive calls reuse
  /// one plan instead of rebuilding it. Batch verifiers hoist this call out
  /// of their candidate loop and use IsMatchRestricted. The reference stays
  /// valid until the next PlanFor call on this matcher.
  const MatchPlan& PlanFor(const PatternQuery& q, const QueryKey& key);

  /// Like IsMatch, but restricts every query node u to `allowed[u]` when
  /// that set is non-null — the hook star-view pruning uses. Runs against a
  /// plan the caller already holds (hoisted via PlanFor): the per-candidate
  /// cost is the probe itself, no memo traffic. `plan` must have been
  /// compiled for `q`.
  bool IsMatchRestricted(
      const PatternQuery& q, const MatchPlan& plan, NodeId v,
      const std::vector<const std::vector<NodeId>*>& allowed);

  /// Enumerates complete valuations with h(focus) = focus_match, invoking
  /// `cb` with the assignment (indexed by QNodeId; kInvalidNode on inactive
  /// nodes). Stops when cb returns false or `limit` valuations were emitted.
  /// `key` must be QueryKey::Of(q). `cb` must not call back into this
  /// matcher: the enumeration walks spans of the matcher's ball memo.
  void Valuations(const PatternQuery& q, const QueryKey& key,
                  NodeId focus_match, size_t limit,
                  const std::function<bool(const std::vector<NodeId>&)>& cb);

  /// The projection of `q`'s valuations with h(focus) = `v` onto the active
  /// non-focus node `u`: appends every distinct h(u) to `out`, in search
  /// order. The search is the plain one against `plan`, except that it
  /// skips a candidate of u it already holds and, once a valuation is found
  /// below h(u) = w, returns to u's step instead of enumerating w's other
  /// completions. Returns false, leaving `out` incomplete, when the search
  /// would visit more than `max_states` states. Its states count into
  /// node_expansions and projection_states.
  bool Project(const PatternQuery& q, const MatchPlan& plan, NodeId v,
               QNodeId u, uint64_t max_states, std::vector<NodeId>* out);

  MatchStats& stats() { return stats_; }
  const Graph& graph() const { return g_; }
  DistanceIndex& dist() { return *dist_; }

 private:
  /// Compiles `q`'s plan: the BFS assignment order from the focus, the
  /// per-node filters, each step's ball key, and a fresh serial.
  static std::shared_ptr<const MatchPlan> BuildPlan(const PatternQuery& q);

  /// The worker for ShardProbes slot `slot` >= 1, created on its first call
  /// (only from that slot's thread) with this matcher's plan memo and
  /// pipeline setting.
  Matcher& Worker(size_t slot);

  using Allowed = std::vector<const std::vector<NodeId>*>;
  using ValuationFn = std::function<bool(const std::vector<NodeId>&)>;

  /// One top-level probe with the focus fixed to `v`: counts a focus
  /// verification, admits `v` through the focus filter (and `allowed`'s
  /// focus set when given), enters the probe, forward-checks the steps
  /// anchored on the focus and runs the search, emitting at most `limit`
  /// valuations to `cb`.
  void Probe(const PatternQuery& q, const MatchPlan& plan, NodeId v,
             size_t limit, const Allowed* allowed, const ValuationFn& cb);

  /// Whether Probe finds a first witness valuation for `v`.
  bool HasWitness(const PatternQuery& q, const MatchPlan& plan, NodeId v,
                  const Allowed* allowed);

  /// Per-node candidate probe during the backtracking search: the compiled
  /// filter when the pipeline is on, interpreted IsCandidate otherwise.
  bool Admits(const PatternQuery& q, const MatchPlan& plan, QNodeId u,
              NodeId v) const {
    return use_pipeline_ ? plan.filters.at(u).Admits(g_.view(), v)
                         : IsCandidate(g_, q, u, v);
  }

  /// Forward check: whether every step in `dependents` has a non-empty
  /// filtered ball around `v` (bumps forward_prunes when one does not).
  bool Viable(const PatternQuery& q, const MatchPlan& plan,
              const std::vector<uint32_t>& dependents, NodeId v);

  /// Whether `v` may be assigned to `step`'s node below `assign`: in the
  /// step's allowed set (`ok_set`, null = any), not yet assigned
  /// (injectivity), within bound of every assigned neighbor it is checked
  /// against, and viable for the later steps anchored on it (forward check).
  bool AdmitCandidate(const PatternQuery& q, const MatchPlan& plan,
                      const PlanStep& step, const std::vector<NodeId>& assign,
                      const std::vector<NodeId>* ok_set, NodeId v);

  /// The backtracking search from plan step `depth`. Inside Project it also
  /// skips the projected step's held nodes and unwinds to that step after
  /// each valuation found.
  bool Extend(const PatternQuery& q, const MatchPlan& plan, size_t depth,
              std::vector<NodeId>& assign, size_t limit, size_t& emitted,
              const Allowed* allowed, const ValuationFn& cb);

  /// The state of a Project search, seen by Extend while it runs.
  struct ProjectionRun {
    size_t depth = 0;          // plan step that assigns the projected node
    uint64_t state_limit = 0;  // node_expansions past which the run gives up
    bool found = false;        // a valuation was found below the current h(u)
    bool over_cap = false;
  };

  /// A memoized filtered ball: ball_cells_[begin, begin + size).
  struct BallSpan {
    uint32_t begin = 0;
    uint32_t size = 0;
  };

  struct BallKeyHash {
    size_t operator()(const BallKey& k) const { return k.hash; }
  };

  /// Entry into a top-level probe: resets the memo when it is over budget
  /// (no Extend frame is iterating a span here) and resolves `plan`'s ball
  /// keys to memo slots unless they already are.
  void BeginProbe(const MatchPlan& plan);

  /// The filtered ball of `plan.steps[depth]` around `anchor_match`, from
  /// the memo or swept into it.
  BallSpan Ball(const PatternQuery& q, const MatchPlan& plan, size_t depth,
                NodeId anchor_match);

  const Graph& g_;
  DistanceIndex* dist_;
  BoundedBfs bfs_;
  MatchStats stats_;
  SharedPlans* shared_plans_ = nullptr;
  bool use_pipeline_ = true;
  /// ShardProbes' worker matchers, one per slot >= 1 (null until that slot
  /// first probes).
  std::vector<std::unique_ptr<Matcher>> workers_;

  // Project state: the running search (null otherwise) and the nodes it
  // holds, marked with the current epoch in an array over node ids.
  ProjectionRun* projection_ = nullptr;
  std::vector<uint32_t> marks_;
  uint32_t mark_epoch_ = 0;

  // Filtered-ball memo. Spans index the arena, so a fill may grow it while
  // outer Extend frames iterate theirs.
  std::unordered_map<BallKey, uint32_t, BallKeyHash> ball_slots_;
  std::unordered_map<uint64_t, BallSpan> balls_;  // slot << 32 | anchor
  std::vector<NodeId> ball_cells_;
  size_t ball_budget_;     // cells; each memo entry counts kBallEntryCells
  uint64_t resolved_plan_ = 0;  // serial whose keys step_slots_ holds
  std::vector<uint32_t> step_slots_;

  // Single-entry plan memo keyed by rewrite key (null plan = empty). Holds a
  // shared_ptr so a plan pulled from (or published to) the cross-matcher
  // memo stays alive here even if the memo later drops it.
  QueryKey plan_key_;
  std::shared_ptr<const MatchPlan> plan_cache_;
};

/// Cross-matcher match-plan memo keyed by rewrite key. Plans — the
/// assignment order plus the compiled per-node filters — are pure functions
/// of the (rewritten) pattern, so every matcher touching the same shape —
/// across requests, threads, and worker shards — can reuse one immutable
/// plan instead of recompiling it. All methods are thread-safe; published
/// plans are immutable and handed out by shared_ptr, so readers never
/// observe a partially built plan.
class Matcher::SharedPlans {
 public:
  /// `max_plans` bounds memory: once full, new shapes are still planned and
  /// used locally but not published (matchers keep their own single-entry
  /// memo, so steady-state traffic over a bounded shape set is unaffected).
  explicit SharedPlans(size_t max_plans = 4096) : max_plans_(max_plans) {}

  SharedPlans(const SharedPlans&) = delete;
  SharedPlans& operator=(const SharedPlans&) = delete;

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return plans_.size();
  }
  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  uint64_t publishes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return publishes_;
  }

 private:
  friend class Matcher;

  std::shared_ptr<const MatchPlan> Lookup(const QueryKey& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plans_.find(key);
    if (it == plans_.end()) return nullptr;
    ++hits_;
    return it->second;
  }

  void Publish(const QueryKey& key, std::shared_ptr<const MatchPlan> plan) {
    std::lock_guard<std::mutex> lock(mu_);
    if (plans_.size() >= max_plans_ && plans_.find(key) == plans_.end()) return;
    auto [it, inserted] = plans_.emplace(key, std::move(plan));
    (void)it;
    if (inserted) ++publishes_;  // first publisher wins; racers reuse theirs
  }

  mutable std::mutex mu_;
  size_t max_plans_;
  uint64_t hits_ = 0;
  uint64_t publishes_ = 0;
  std::unordered_map<QueryKey, std::shared_ptr<const MatchPlan>,
                     QueryKey::Hash>
      plans_;
};

}  // namespace wqe

#endif  // WQE_MATCH_MATCHER_H_
