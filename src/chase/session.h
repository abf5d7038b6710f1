#ifndef WQE_CHASE_SESSION_H_
#define WQE_CHASE_SESSION_H_

#include <memory>
#include <span>
#include <string>

#include "chase/differential.h"
#include "chase/solve.h"

namespace wqe {

/// The exploratory-search workflow of Fig 3, packaged: issue a query,
/// inspect answers, designate exemplars (or entities), receive ranked
/// rewrites with lineage, accept one, repeat. Graph-level indexes and the
/// star-view cache persist across the whole session, so each follow-up
/// question reuses the previous ones' materialized views (§5.2) — the
/// "system response time" the paper optimizes between search sessions.
class ExploratorySession {
 public:
  explicit ExploratorySession(const Graph& g) : ExploratorySession(g, {}) {}
  ExploratorySession(const Graph& g, ChaseOptions defaults);

  /// Sets (or replaces) the session's current query and evaluates it.
  const std::vector<NodeId>& Issue(const PatternQuery& q);

  /// The current query (initially unset) and its answer.
  bool has_query() const { return current_ != nullptr; }
  const PatternQuery& current_query() const { return current_->question().query; }
  const std::vector<NodeId>& current_answer() const {
    return current_->root()->matches;
  }

  /// Asks a Why-question about the current query with an explicit exemplar;
  /// returns top-k rewrites (k from the session defaults).
  ChaseResult Ask(const Exemplar& exemplar);

  /// Convenience: designate entities from G as the exemplar (§2.2 Remarks).
  ChaseResult AskByExamples(std::span<const NodeId> examples);

  /// Accepts a suggested rewrite: it becomes the session's current query
  /// (re-evaluated through the shared cache).
  void Accept(const WhyAnswer& answer);

  /// Human-readable lineage of `answer` relative to the query it was asked
  /// about. Call between Ask and the next Issue/Ask/Accept (those replace
  /// the base query the operators replay from).
  std::string Explain(const WhyAnswer& answer);

  /// Cache effectiveness over the session so far.
  const ViewCache& cache() const { return cache_; }

  /// Cumulative chase statistics across all questions asked. `phases` holds
  /// the per-phase breakdown summed over every Ask; `termination` is the
  /// latest question's reason.
  const ChaseStats& stats() const { return total_stats_; }

  /// The observation scope every question of this session reports into
  /// (metrics accumulate across Asks; the tracer spans them all).
  obs::Observability& observability() { return obs_; }

  /// Validation outcome of the session defaults, computed once at
  /// construction. A non-OK session returns that status from every Ask.
  const Status& defaults_status() const { return defaults_status_; }

 private:
  const Graph& g_;
  ChaseOptions defaults_;
  Status defaults_status_;
  obs::Observability obs_;
  GraphIndexes indexes_;
  ViewCache cache_;
  std::unique_ptr<ChaseContext> current_;  // context of the current query
  ChaseStats total_stats_;
};

}  // namespace wqe

#endif  // WQE_CHASE_SESSION_H_
