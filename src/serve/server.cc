#include "serve/server.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <sstream>
#include <utility>

#include "chase/report.h"
#include "common/thread_pool.h"
#include "obs/json.h"
#include "store/artifact_store.h"
#include "store/serde.h"

namespace wqe::serve {

namespace {

uint64_t ToNs(double seconds) {
  return seconds <= 0 ? 0 : static_cast<uint64_t>(seconds * 1e9);
}

obs::FlightRecorder::Options FlightOptions(const ServerOptions& o) {
  obs::FlightRecorder::Options f;
  f.capacity = o.flight_capacity;
  f.slow_capacity = o.flight_slow_capacity;
  f.slow_threshold_ns = ToNs(o.flight_slow_threshold_seconds);
  return f;
}

}  // namespace

Server::Server(const Graph& g, ServerOptions opts)
    : g_(g),
      opts_(std::move(opts)),
      concurrency_(opts_.concurrency != 0
                       ? opts_.concurrency
                       : std::max<size_t>(1, ThreadPool::Shared().workers())),
      owned_obs_(opts_.observability == nullptr
                     ? std::make_unique<obs::Observability>()
                     : nullptr),
      obs_(opts_.observability == nullptr ? owned_obs_.get()
                                          : opts_.observability),
      store_(opts_.cache_dir.empty()
                 ? nullptr
                 : std::make_unique<store::ArtifactStore>(
                       opts_.cache_dir, store::Serde::GraphFingerprint(g),
                       obs_)),
      owned_indexes_(opts_.prebuilt_indexes == nullptr
                         ? std::make_unique<GraphIndexes>(g, /*num_threads=*/0)
                         : nullptr),
      indexes_(opts_.prebuilt_indexes == nullptr ? owned_indexes_.get()
                                                 : opts_.prebuilt_indexes),
      graph_fp_(store::Serde::GraphFingerprint(g)),
      flight_(FlightOptions(opts_)) {
  // The shared cache reports into the server scope, wired once here by its
  // owner (per-request scopes stay isolated; see ChaseContext).
  cache_.set_observability(obs_);
  if (store_ != nullptr) store_->WarmStarViews(g_, &cache_);

  c_admitted_ = &obs_->metrics.counter("serve.admitted");
  c_shed_ = &obs_->metrics.counter("serve.shed");
  c_completed_ = &obs_->metrics.counter("serve.completed");
  c_deadline_ = &obs_->metrics.counter("serve.deadline_expired");
  h_latency_ = &obs_->metrics.histogram("serve.latency_ns");
  h_queue_ = &obs_->metrics.histogram("serve.queue_ns");
  h_solve_ = &obs_->metrics.histogram("solve.latency_ns");
  w_latency_ = &obs_->metrics.sliding("serve.latency_ns",
                                      opts_.slo_window_seconds);
  w_queue_ = &obs_->metrics.sliding("serve.queue_ns", opts_.slo_window_seconds);
  for (size_t a = 0; a < kAlgorithms; ++a) {
    w_solve_[a] = &obs_->metrics.sliding(
        "solve." + std::string(AlgorithmName(static_cast<Algorithm>(a))) +
            ".latency_ns",
        opts_.slo_window_seconds);
  }

  if (opts_.telemetry_port >= 0) {
    telemetry_ = std::make_unique<obs::TelemetryServer>();
    telemetry_->Handle("/statusz", "application/json",
                       [this] { return StatuszJson(); });
    telemetry_->Handle("/metricsz", "text/plain; version=0.0.4",
                       [this] { return obs::PrometheusText(obs_->metrics); });
    telemetry_->Handle("/requestz", "application/json",
                       [this] { return flight_.ToJson(); });
    // SIGUSR1 latches a dump request (async-signal-safe store); the listener
    // thread's idle hook performs the actual dump outside signal context.
    obs::InstallFlightDumpHandler();
    telemetry_->set_idle_hook([this] {
      if (obs::ConsumeFlightDumpRequest()) {
        const std::string dump = flight_.ToJson();
        std::fprintf(stderr, "wqe_serve flight recorder dump:\n%s\n",
                     dump.c_str());
        std::fflush(stderr);
      }
    });
    obs::TelemetryOptions topts;
    topts.port = static_cast<uint16_t>(opts_.telemetry_port);
    telemetry_status_ = telemetry_->Start(topts);
    if (!telemetry_status_.ok()) telemetry_.reset();
  }
}

Server::~Server() {
  // Stop exposition before draining: handlers read flight_/obs_/stats, and
  // nothing should be scraping while members wind down.
  if (telemetry_ != nullptr) telemetry_->Stop();
  Drain();
  if (store_ != nullptr && cache_.size() > 0) {
    store_->SaveStarViews(cache_, cache_.options().max_entries);
  }
}

uint16_t Server::telemetry_port() const {
  return telemetry_ != nullptr ? telemetry_->port() : 0;
}

std::future<Response> Server::Submit(Request req) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();

  // Boundary rejections complete inline: invalid options never reach the
  // queue (they would only waste a drainer slot to fail the same way).
  if (Status s = req.options.Validate(); !s.ok()) {
    Response resp;
    resp.algorithm = req.algorithm;
    resp.id = req.id;
    resp.result.status = s;
    resp.status = std::move(s);
    promise.set_value(std::move(resp));
    return future;
  }

  // Per-request deadline is armed at ADMISSION: a relative time limit
  // becomes an absolute expiry now, so time spent queued counts against the
  // request's budget (a saturated server returns anytime answers on time
  // instead of stretching every deadline by its queue wait). The limit field
  // is zeroed so ChaseContext does not re-arm it at execution start.
  if (req.options.time_limit_seconds > 0) {
    req.options.deadline = Deadline::After(req.options.time_limit_seconds);
    req.options.time_limit_seconds = 0;
  } else if (!req.options.deadline.armed() &&
             opts_.default_time_limit_seconds > 0) {
    req.options.deadline = Deadline::After(opts_.default_time_limit_seconds);
  }

  bool spawn = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() >= opts_.max_queue && executing_ >= concurrency_) {
      ++shed_;
      c_shed_->Inc();
      Response resp;
      resp.algorithm = req.algorithm;
      resp.id = req.id;
      Status s = Status::Overloaded(
          "admission queue full: " + std::to_string(queue_.size()) +
          " queued, " + std::to_string(executing_) + " executing");
      resp.result.status = s;
      resp.status = std::move(s);
      promise.set_value(std::move(resp));
      return future;
    }
    ++admitted_;
    c_admitted_->Inc();
    Pending p;
    p.req = std::move(req);
    p.promise = std::move(promise);
    queue_.push_back(std::move(p));
    if (executing_ < concurrency_) {
      ++executing_;
      spawn = true;
    }
  }
  if (spawn) ThreadPool::Shared().Submit([this] { DrainLoop(); });
  return future;
}

Response Server::Serve(Request req) { return Submit(std::move(req)).get(); }

void Server::DrainLoop() {
  for (;;) {
    Pending p;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) {
        --executing_;
        if (executing_ == 0) idle_cv_.notify_all();
        return;
      }
      p = std::move(queue_.front());
      queue_.pop_front();
    }
    RunOne(p);
  }
}

void Server::RunOne(Pending& p) {
  const double queue_seconds = p.queued.ElapsedSeconds();
  Timer execute_timer;
  Response resp;
  obs::RequestDigest digest;
  digest.id = p.req.id;
  digest.set_algorithm(AlgorithmName(p.req.algorithm));
  digest.question_fp = ChaseReport::QuestionFingerprint(p.req.question);
  try {
    if (opts_.on_execute) opts_.on_execute(p.req);

    // Each request solves inside a private scope: spans and counters from
    // concurrent solves never interleave. The shared cache and plan memo
    // report into the server scope (wired once at construction), so their
    // traffic is attributed to the server, not to whichever request happened
    // to touch them.
    obs::Observability req_obs;
    ChaseOptions o = p.req.options;
    o.observability = &req_obs;
    o.query_log = opts_.query_log;
    // Shared artifacts are pre-warmed and persisted by the server itself; a
    // per-request store would re-open (and re-persist) the same directory
    // from every drainer at once.
    o.cache_dir.clear();

    ChaseContext ctx(g_, indexes_, &cache_, &plans_, p.req.question, o);
    resp = ExecuteWithContext(ctx, p.req.algorithm, p.req.collect_report);
    resp.id = p.req.id;
    resp.queue_seconds = queue_seconds;

    // Cross-request aggregation happens here and only here: the request's
    // counters fold into the server registry, its per-solve phase breakdown
    // merges into the server-wide totals (obs::MergePhases).
    req_obs.metrics.ForEachCounter(
        [this](const std::string& name, uint64_t value) {
          if (value != 0) obs_->metrics.counter(name).Inc(value);
        });
    {
      std::lock_guard<std::mutex> lock(phases_mu_);
      obs::MergePhases(merged_phases_, resp.result.stats.phases);
    }
    const uint64_t solve_ns = ToNs(resp.result.stats.elapsed_seconds);
    h_solve_->Observe(solve_ns);
    const size_t algo = static_cast<size_t>(p.req.algorithm);
    if (algo < kAlgorithms) w_solve_[algo]->Observe(solve_ns);

    digest.solve_ns = solve_ns;
    ChaseReport::DigestPhases(resp.result.stats.phases, digest);
    // "Bytes of answer" without rendering anything on the hot path: each
    // answer's cached canonical form plus its match list.
    for (const WhyAnswer& a : resp.result.answers) {
      digest.answer_bytes += a.fingerprint.size() + 8 * a.matches.size();
    }
  } catch (const std::exception& e) {
    // A drainer runs on the shared pool; nothing may escape. Engine-level
    // deadline handling never throws this far — anything that does is a
    // request-scoped failure, reported on the response.
    resp = Response();
    resp.algorithm = p.req.algorithm;
    resp.id = p.req.id;
    Status s = Status::InvalidArgument(std::string("request failed: ") +
                                       e.what());
    resp.result.status = s;
    resp.status = std::move(s);
  }
  const uint64_t queue_ns = ToNs(queue_seconds);
  const uint64_t total_ns = ToNs(queue_seconds + execute_timer.ElapsedSeconds());
  h_queue_->Observe(queue_ns);
  h_latency_->Observe(total_ns);
  w_queue_->Observe(queue_ns);
  w_latency_->Observe(total_ns);

  digest.queue_ns = queue_ns;
  digest.total_ns = total_ns;
  digest.status_code = static_cast<uint32_t>(resp.status.code());
  digest.termination = static_cast<uint32_t>(resp.result.stats.termination);
  flight_.Record(digest);

  const bool hit_deadline =
      resp.result.stats.termination == TerminationReason::kDeadline;
  if (hit_deadline) c_deadline_->Inc();
  // Counted before the promise resolves so stats() never lags a caller that
  // has already observed the future.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++completed_;
    if (hit_deadline) ++deadline_expired_;
  }
  c_completed_->Inc();
  p.promise.set_value(std::move(resp));
}

void Server::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && executing_ == 0; });
}

Server::Stats Server::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.admitted = admitted_;
    s.shed = shed_;
    s.completed = completed_;
    s.deadline_expired = deadline_expired_;
    s.queued = queue_.size();
    s.executing = executing_;
  }
  // Snap outside mu_ — the sliding window is lock-free and the quantile walk
  // should never extend the admission lock's hold time.
  const obs::Histogram::Snapshot lat = w_latency_->Snap();
  if (lat.count > 0) {
    s.latency_p50_ms = static_cast<double>(lat.Quantile(0.5)) / 1e6;
    s.latency_p99_ms = static_cast<double>(lat.Quantile(0.99)) / 1e6;
  }
  return s;
}

std::string Server::StatuszJson() const {
  const Stats s = stats();
  const obs::Histogram::Snapshot lat = w_latency_->Snap();
  const obs::Histogram::Snapshot que = w_queue_->Snap();
  const obs::MetricsRegistry& m = obs_->metrics;
  const auto counter = [&m](const char* name) {
    return const_cast<obs::MetricsRegistry&>(m).counter(name).Value();
  };

  std::ostringstream out;
  out << "{\"uptime_seconds\":" << obs::JsonNumber(uptime_.ElapsedSeconds())
      << ",\"build\":" << obs::JsonString(__DATE__ " " __TIME__);
  char fp[24];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(graph_fp_));
  out << ",\"graph_fp\":" << obs::JsonString(fp)
      << ",\"graph_nodes\":" << g_.num_nodes()
      << ",\"concurrency\":" << concurrency_
      << ",\"max_queue\":" << opts_.max_queue;

  out << ",\"requests\":{\"admitted\":" << s.admitted << ",\"shed\":" << s.shed
      << ",\"completed\":" << s.completed
      << ",\"deadline_expired\":" << s.deadline_expired
      << ",\"queued\":" << s.queued << ",\"executing\":" << s.executing << '}';

  const auto window = [&out](const char* key,
                             const obs::Histogram::Snapshot& snap,
                             double window_seconds) {
    out << ",\"" << key << "\":{\"window_s\":"
        << obs::JsonNumber(window_seconds) << ",\"count\":" << snap.count
        << ",\"p50_ms\":"
        << obs::JsonNumber(static_cast<double>(snap.Quantile(0.5)) / 1e6)
        << ",\"p95_ms\":"
        << obs::JsonNumber(static_cast<double>(snap.Quantile(0.95)) / 1e6)
        << ",\"p99_ms\":"
        << obs::JsonNumber(static_cast<double>(snap.Quantile(0.99)) / 1e6)
        << '}';
  };
  window("latency", lat, w_latency_->window_seconds());
  window("queue_wait", que, w_queue_->window_seconds());

  out << ",\"cache\":{\"hits\":" << counter("cache.hits")
      << ",\"misses\":" << counter("cache.misses")
      << ",\"evictions\":" << counter("cache.evictions")
      << ",\"entries\":" << cache_.size() << '}';
  out << ",\"delta_eval\":{\"hits\":" << counter("delta_eval.hits")
      << ",\"full_fallbacks\":" << counter("delta_eval.full_fallbacks")
      << ",\"reverified\":" << counter("delta_eval.reverified")
      << ",\"skipped\":" << counter("delta_eval.skipped") << '}';
  out << ",\"flight\":{\"recorded\":" << flight_.recorded()
      << ",\"slow_recorded\":" << flight_.slow_recorded() << '}';
  if (telemetry_ != nullptr) {
    out << ",\"telemetry\":{\"port\":" << telemetry_->port()
        << ",\"requests_served\":" << telemetry_->requests_served() << '}';
  }
  out << '}';
  return out.str();
}

std::vector<obs::PhaseStat> Server::MergedPhases() const {
  std::lock_guard<std::mutex> lock(phases_mu_);
  return merged_phases_;
}

}  // namespace wqe::serve
