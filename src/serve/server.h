#ifndef WQE_SERVE_SERVER_H_
#define WQE_SERVE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "chase/solve.h"
#include "common/timer.h"
#include "obs/flight_recorder.h"
#include "obs/query_log.h"
#include "obs/telemetry.h"

namespace wqe {
namespace store {
class ArtifactStore;
}  // namespace store
}  // namespace wqe

namespace wqe::serve {

/// Configuration of a Server instance.
struct ServerOptions {
  /// Requests executing simultaneously (0 = one per shared-pool worker).
  /// Each executing request may itself parallelize via its own
  /// ChaseOptions::num_threads; both levels draw from the same process-wide
  /// ThreadPool, so the machine is never oversubscribed.
  size_t concurrency = 0;

  /// Bounded admission queue. Requests beyond `concurrency` executing wait
  /// here; an arrival that finds the queue full is shed immediately with
  /// Status::Overloaded instead of queued unboundedly (open-loop traffic
  /// would otherwise grow the queue — and every latency — without limit).
  size_t max_queue = 64;

  /// Applied to requests that arm no deadline of their own (neither
  /// time_limit_seconds nor an explicit ChaseOptions::deadline). 0 = no
  /// server-imposed limit.
  double default_time_limit_seconds = 0;

  /// Warm-start directory for the artifact store: persisted star views warm
  /// the shared view cache from here, and the cache is persisted back on
  /// shutdown. Graph indexes come from `prebuilt_indexes` or are built.
  /// Empty = fully in-memory.
  std::string cache_dir;

  /// Server-wide observation scope: admission counters, queue/latency
  /// histograms, shared-cache traffic, and every request's counters folded
  /// in after completion. Null = the server owns a private scope.
  obs::Observability* observability = nullptr;

  /// When set, every completed request appends one provenance record
  /// (replayable — see serve/replay.h). Must outlive the server.
  obs::QueryLog* query_log = nullptr;

  /// Test hook, invoked on the executing thread right before a request's
  /// evaluation context is built. Lets tests stall execution deterministically
  /// (to force queue saturation) without timing races.
  std::function<void(const Request&)> on_execute;

  /// Borrowed prebuilt graph indexes — e.g. attached zero-copy from a store
  /// v2 mmap bundle (MappedServingState). Must be built for the same graph
  /// and outlive the server. When set, construction skips the expensive
  /// index build entirely (cache_dir still warms/persists star views).
  GraphIndexes* prebuilt_indexes = nullptr;

  /// HTTP telemetry exposition (/statusz, /metricsz, /requestz) on its own
  /// listener thread. -1 (default) = no listener; 0 = bind an ephemeral
  /// port, read back via telemetry_port(); >0 = that port. Exposition reads
  /// take only the same short internal locks as stats(), so scraping never
  /// stalls Submit.
  int telemetry_port = -1;

  /// Flight recorder geometry. The recorder itself is always on — its cost
  /// is one atomic ring-slot write per completed request.
  size_t flight_capacity = 256;
  size_t flight_slow_capacity = 64;
  /// Requests slower than this (admission to completion) also land in the
  /// always-retained slow tier. 0 disables the tier.
  double flight_slow_threshold_seconds = 0.25;

  /// Width of the rolling SLO window behind the sliding latency / queue-wait
  /// / per-algorithm solve-time histograms (and Stats::latency_p50_ms).
  double slo_window_seconds = 60.0;
};

/// Concurrent query-serving layer: multiplexes many in-flight `Execute`
/// calls over the process-wide thread pool against one immutable Graph and
/// a set of warm shared artifacts — graph indexes (immutable after build),
/// a star-view cache and a matcher plan memo (both internally synchronized).
///
/// Lifecycle: construction builds or loads the artifacts (the expensive,
/// one-time part); Submit is then cheap and non-blocking. Admission control
/// runs at Submit time: beyond `concurrency` executing + `max_queue` waiting,
/// requests complete immediately with Status::Overloaded. Admitted requests
/// are drained FIFO by up to `concurrency` pool tasks.
///
/// Isolation: each request solves inside a private Observability scope, so
/// concurrent solves never interleave span self-time or counters. After each
/// completion the server folds the request's counters and phase breakdown
/// into its own scope (obs::MergePhases semantics), which is the only place
/// cross-request aggregation happens.
///
/// Answers are byte-identical to a sequential `Execute` of the same request:
/// shared artifacts are caches and memos, never inputs to the result.
class Server {
 public:
  Server(const Graph& g, ServerOptions opts);

  /// Drains in-flight requests, persists the shared star-view cache when a
  /// cache_dir is configured.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Non-blocking submission. The future becomes ready when the request
  /// completes — immediately for validation rejections (kInvalidArgument)
  /// and load shedding (kOverloaded). A request carrying
  /// time_limit_seconds has it converted to an absolute deadline here, at
  /// admission, so queue wait counts against the request's budget and a
  /// long-queued request still returns (with its anytime answer) on time.
  std::future<Response> Submit(Request req);

  /// Blocking convenience: Submit + wait.
  Response Serve(Request req);

  /// Blocks until every admitted request has completed.
  void Drain();

  struct Stats {
    uint64_t admitted = 0;
    uint64_t shed = 0;
    uint64_t completed = 0;
    uint64_t deadline_expired = 0;  // completions that hit their deadline
    size_t queued = 0;              // waiting right now
    size_t executing = 0;           // running right now
    /// Rolling end-to-end latency quantiles over the configured SLO window
    /// (0 while the window is empty).
    double latency_p50_ms = 0;
    double latency_p99_ms = 0;
  };
  Stats stats() const;

  /// The /statusz document: uptime, build/graph identity, live Stats,
  /// rolling SLO quantiles, cache and delta-eval counters, flight-recorder
  /// occupancy. Strict obs JSON — round-trips through obs::ParseJson.
  std::string StatuszJson() const;

  /// The bound telemetry port; 0 when no listener was requested or the bind
  /// failed (see telemetry_status()).
  uint16_t telemetry_port() const;

  /// OK unless ServerOptions::telemetry_port was set and the bind failed —
  /// the server still serves in that case, just without exposition.
  const Status& telemetry_status() const { return telemetry_status_; }

  const obs::FlightRecorder& flight_recorder() const { return flight_; }

  /// Cross-request phase totals (each request's per-solve breakdown folded
  /// via obs::MergePhases after completion).
  std::vector<obs::PhaseStat> MergedPhases() const;

  obs::Observability& observability() { return *obs_; }
  const GraphIndexes& indexes() const { return *indexes_; }
  ViewCache& view_cache() { return cache_; }
  Matcher::SharedPlans& shared_plans() { return plans_; }
  size_t concurrency() const { return concurrency_; }
  const ServerOptions& options() const { return opts_; }

 private:
  struct Pending {
    Request req;
    std::promise<Response> promise;
    Timer queued;  // admission -> execution start
  };

  /// Body of one drainer task: pops and executes requests until the queue is
  /// empty, then exits (Submit spawns a fresh drainer when needed, so no
  /// pool worker ever parks on a condition variable).
  void DrainLoop();
  void RunOne(Pending& p);

  const Graph& g_;
  ServerOptions opts_;
  size_t concurrency_;

  std::unique_ptr<obs::Observability> owned_obs_;
  obs::Observability* obs_;
  std::unique_ptr<store::ArtifactStore> store_;
  std::unique_ptr<GraphIndexes> owned_indexes_;
  GraphIndexes* indexes_;  // owned_indexes_.get() or opts_.prebuilt_indexes
  ViewCache cache_;
  Matcher::SharedPlans plans_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::deque<Pending> queue_;
  size_t executing_ = 0;
  uint64_t admitted_ = 0;
  uint64_t shed_ = 0;
  uint64_t completed_ = 0;
  uint64_t deadline_expired_ = 0;

  mutable std::mutex phases_mu_;
  std::vector<obs::PhaseStat> merged_phases_;

  // Server-scope metrics resolved once at construction.
  obs::Counter* c_admitted_ = nullptr;
  obs::Counter* c_shed_ = nullptr;
  obs::Counter* c_completed_ = nullptr;
  obs::Counter* c_deadline_ = nullptr;
  obs::Histogram* h_latency_ = nullptr;   // admission -> completion
  obs::Histogram* h_queue_ = nullptr;     // admission -> execution start
  obs::Histogram* h_solve_ = nullptr;     // the solver run itself

  // Rolling SLO windows, resolved once at construction (the per-algorithm
  // solve windows are indexed by static_cast<size_t>(Algorithm)).
  static constexpr size_t kAlgorithms = 5;
  obs::SlidingHistogram* w_latency_ = nullptr;
  obs::SlidingHistogram* w_queue_ = nullptr;
  obs::SlidingHistogram* w_solve_[kAlgorithms] = {};

  Timer uptime_;
  uint64_t graph_fp_ = 0;
  obs::FlightRecorder flight_;
  std::unique_ptr<obs::TelemetryServer> telemetry_;
  Status telemetry_status_;
};

}  // namespace wqe::serve

#endif  // WQE_SERVE_SERVER_H_
