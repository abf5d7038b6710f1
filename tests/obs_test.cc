#include "obs/observability.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <mutex>
#include <thread>
#include <vector>

#include "chase/solve.h"
#include "gen/product_demo.h"
#include "obs/json.h"

namespace wqe {
namespace {

TEST(CounterTest, IncAndValue) {
  obs::Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, AggregatesAcrossThreads) {
  obs::Counter c;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAddValue) {
  obs::Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

TEST(HistogramTest, CountSumMean) {
  obs::Histogram h;
  h.Observe(100);
  h.Observe(200);
  h.Observe(300);
  const obs::Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 600u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 200.0);
}

TEST(HistogramTest, QuantileWithinBucketBounds) {
  obs::Histogram h;
  for (int i = 0; i < 1000; ++i) h.Observe(1000);
  const obs::Histogram::Snapshot snap = h.Snap();
  // All mass sits in bucket [512, 1023]; the interpolated answer lands
  // somewhere inside that bucket.
  const uint64_t q50 = snap.Quantile(0.5);
  EXPECT_GE(q50, 512u);
  EXPECT_LE(q50, 1023u);
  // Every quantile of a single-bucket distribution lands in that bucket.
  EXPECT_GE(snap.Quantile(0.0), 512u);
  EXPECT_LE(snap.Quantile(1.0), 1023u);
}

TEST(HistogramTest, InterpolatedQuantilesPinRelativeError) {
  // Uniform ramp over [1000, 100000): wide enough to cross several
  // power-of-two buckets, dense enough that every bucket it touches is well
  // populated — the regime the interpolation is built for.
  obs::Histogram h;
  std::vector<uint64_t> values;
  for (uint64_t v = 1000; v < 100000; v += 9) {
    h.Observe(v);
    values.push_back(v);
  }
  const obs::Histogram::Snapshot snap = h.Snap();
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const uint64_t exact =
        values[static_cast<size_t>(q * static_cast<double>(values.size() - 1))];
    const double interp = static_cast<double>(snap.Quantile(q));
    // The raw upper bound of the bucket holding the exact value.
    const double upper =
        static_cast<double>((uint64_t{1} << std::bit_width(exact)) - 1);
    const double interp_err =
        std::abs(interp - static_cast<double>(exact)) /
        static_cast<double>(exact);
    const double upper_err =
        std::abs(upper - static_cast<double>(exact)) /
        static_cast<double>(exact);
    // Within-bucket interpolation keeps the relative error under ~35% on a
    // uniform ramp; the bucket's upper bound can be off by ~100% (a full
    // power-of-two bucket width).
    EXPECT_LE(interp_err, 0.35) << "q=" << q << " exact=" << exact
                                << " interp=" << interp;
    EXPECT_LE(interp_err, upper_err + 1e-9) << "q=" << q;
  }
}

TEST(HistogramTest, QuantileSeparatesModes) {
  obs::Histogram h;
  for (int i = 0; i < 90; ++i) h.Observe(16);
  for (int i = 0; i < 10; ++i) h.Observe(1u << 20);
  const obs::Histogram::Snapshot snap = h.Snap();
  EXPECT_LE(snap.Quantile(0.5), 64u);
  EXPECT_GE(snap.Quantile(0.99), 1u << 20);
}

TEST(MetricsRegistryTest, NamesReturnStableRefs) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x");
  obs::Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.Inc(5);
  EXPECT_EQ(reg.counter("x").Value(), 5u);
  EXPECT_NE(&reg.counter("x"), &reg.counter("y"));
}

TEST(MetricsRegistryTest, ToJsonListsAllKinds) {
  obs::MetricsRegistry reg;
  reg.counter("steps").Inc(7);
  reg.gauge("size").Set(-3);
  reg.histogram("lat").Observe(1024);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"steps\""), std::string::npos);
  EXPECT_NE(json.find("7"), std::string::npos);
  EXPECT_NE(json.find("\"size\""), std::string::npos);
  EXPECT_NE(json.find("-3"), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
}

void Spin() {
  // Enough work to register non-zero wall time on any clock.
  volatile uint64_t sink = 0;
  for (int i = 0; i < 200000; ++i) sink = sink + static_cast<uint64_t>(i);
}

TEST(TracerTest, NestedSpansAttributeSelfTime) {
  obs::Tracer tracer;
  {
    obs::ScopedSpan outer(&tracer, "outer");
    Spin();
    {
      obs::ScopedSpan inner(&tracer, "inner");
      Spin();
    }
  }
  const std::vector<obs::PhaseStat> phases = tracer.Phases();
  ASSERT_EQ(phases.size(), 2u);
  const obs::PhaseStat& inner = phases[0];
  const obs::PhaseStat& outer = phases[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.count, 1u);
  EXPECT_EQ(outer.count, 1u);
  EXPECT_GT(outer.wall_seconds, inner.wall_seconds);
  // Inner is a leaf: self == wall. Outer's self excludes inner's wall.
  EXPECT_DOUBLE_EQ(inner.self_seconds, inner.wall_seconds);
  EXPECT_NEAR(outer.self_seconds, outer.wall_seconds - inner.wall_seconds,
              1e-9);
}

TEST(TracerTest, SelfTimesSumToTotalTracedTime) {
  obs::Tracer tracer;
  for (int i = 0; i < 3; ++i) {
    obs::ScopedSpan a(&tracer, "a");
    Spin();
    obs::ScopedSpan b(&tracer, "b");
    Spin();
  }
  double self_sum = 0;
  for (const obs::PhaseStat& p : tracer.Phases()) self_sum += p.self_seconds;
  // The invariant the --metrics-out acceptance check relies on: self time
  // partitions the traced wall time exactly (up to ns rounding per span).
  EXPECT_NEAR(self_sum, tracer.TotalTracedSeconds(), 1e-8);
  EXPECT_GT(tracer.TotalTracedSeconds(), 0.0);
}

TEST(TracerTest, NullTracerSpanIsNoOp) {
  obs::ScopedSpan span(nullptr, "nothing");  // must not crash
  EXPECT_EQ(obs::CurrentTracer(), nullptr);
  WQE_SPAN("also.nothing");
}

TEST(TracerTest, TracerScopeInstallsThreadLocal) {
  obs::Tracer tracer;
  EXPECT_EQ(obs::CurrentTracer(), nullptr);
  {
    obs::TracerScope scope(&tracer);
    EXPECT_EQ(obs::CurrentTracer(), &tracer);
    WQE_SPAN("scoped.phase");
  }
  EXPECT_EQ(obs::CurrentTracer(), nullptr);
  const std::vector<obs::PhaseStat> phases = tracer.Phases();
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].name, "scoped.phase");
}

TEST(TracerTest, ChromeTraceJsonCapturesEvents) {
  obs::Tracer tracer;
  tracer.set_capture_events(true);
  {
    obs::ScopedSpan span(&tracer, "exported");
    Spin();
  }
  const std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"exported\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TracerTest, DiffPhasesCarvesOutDeltas) {
  obs::Tracer tracer;
  {
    obs::ScopedSpan span(&tracer, "p");
    Spin();
  }
  const std::vector<obs::PhaseStat> before = tracer.Phases();
  {
    obs::ScopedSpan span(&tracer, "p");
    Spin();
    obs::ScopedSpan fresh(&tracer, "q");
  }
  const std::vector<obs::PhaseStat> delta =
      obs::DiffPhases(before, tracer.Phases());
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta[0].name, "p");
  EXPECT_EQ(delta[0].count, 1u);  // 2 total - 1 before
  EXPECT_EQ(delta[1].name, "q");
  EXPECT_EQ(delta[1].count, 1u);
}

// The serving layer's cross-request aggregation pattern under concurrency:
// each worker solves into a private scope, then folds its counters into a
// shared registry (ForEachCounter + Inc) and its phase breakdown into a
// shared rollup (MergePhases under a mutex). Totals must come out exact —
// this is the test the TSan stage runs to prove the fold itself races with
// nothing.
TEST(ObsFoldTest, ConcurrentPerRequestScopeFoldingIsExact) {
  constexpr int kWorkers = 8;
  constexpr int kRoundsPerWorker = 50;
  obs::MetricsRegistry shared;
  std::mutex phases_mu;
  std::vector<obs::PhaseStat> merged;

  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&shared, &phases_mu, &merged, t] {
      for (int r = 0; r < kRoundsPerWorker; ++r) {
        // Private per-request scope, as built in serve::Server::RunOne.
        obs::MetricsRegistry private_scope;
        private_scope.counter("chase.steps").Inc(3);
        private_scope.counter("chase.evaluations").Inc(2);
        if (t % 2 == 0) private_scope.counter("cache.hits").Inc();

        std::vector<obs::PhaseStat> phases;
        obs::PhaseStat p;
        p.name = "evaluate";
        p.count = 1;
        p.self_seconds = 0.001;
        p.wall_seconds = 0.001;
        phases.push_back(p);
        p.name = t % 2 == 0 ? "refine" : "verify";
        phases.push_back(p);

        private_scope.ForEachCounter(
            [&shared](const std::string& name, uint64_t value) {
              if (value != 0) shared.counter(name).Inc(value);
            });
        {
          std::lock_guard<std::mutex> lock(phases_mu);
          obs::MergePhases(merged, phases);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  constexpr uint64_t kRounds = kWorkers * kRoundsPerWorker;
  EXPECT_EQ(shared.counter("chase.steps").Value(), 3 * kRounds);
  EXPECT_EQ(shared.counter("chase.evaluations").Value(), 2 * kRounds);
  EXPECT_EQ(shared.counter("cache.hits").Value(), kRounds / 2);

  uint64_t evaluate_count = 0, refine_count = 0, verify_count = 0;
  for (const obs::PhaseStat& ph : merged) {
    if (ph.name == "evaluate") evaluate_count = ph.count;
    if (ph.name == "refine") refine_count = ph.count;
    if (ph.name == "verify") verify_count = ph.count;
  }
  EXPECT_EQ(evaluate_count, kRounds);
  EXPECT_EQ(refine_count, kRounds / 2);
  EXPECT_EQ(verify_count, kRounds / 2);
}

// Readers may walk the shared registry while writers fold into it — the
// exposition path (/metricsz renders mid-traffic). Values observed mid-fold
// are torn-free per counter and monotonically growing.
TEST(ObsFoldTest, RegistryWalkDuringConcurrentFoldsIsConsistent) {
  obs::MetricsRegistry shared;
  shared.counter("serve.completed");  // pre-register so walkers always see it
  std::atomic<bool> done{false};

  std::thread writer([&shared, &done] {
    for (int i = 0; i < 20000; ++i) shared.counter("serve.completed").Inc();
    done.store(true, std::memory_order_release);
  });

  uint64_t last = 0;
  while (!done.load(std::memory_order_acquire)) {
    shared.ForEachCounter([&last](const std::string& name, uint64_t value) {
      if (name == "serve.completed") {
        EXPECT_GE(value, last);
        last = value;
      }
    });
  }
  writer.join();
  shared.ForEachCounter([](const std::string& name, uint64_t value) {
    if (name == "serve.completed") {
      EXPECT_EQ(value, 20000u);
    }
  });
}

// End-to-end: a solve against a shared Observability populates counters that
// agree with ChaseStats, and phase self times cover the solve span.
class ObservedSolve : public ::testing::TestWithParam<size_t> {};

TEST_P(ObservedSolve, CountersAgreeWithStats) {
  ProductDemo demo;
  obs::Observability o;
  ChaseOptions opts;
  opts.budget = 4;
  opts.num_threads = GetParam();
  opts.observability = &o;
  ChaseResult result =
      Execute(demo.graph(), {demo.Question(), opts, Algorithm::kAnsW}).result;
  ASSERT_TRUE(result.found());
  EXPECT_EQ(o.metrics.counter("chase.steps").Value(), result.stats.steps);
  EXPECT_EQ(o.metrics.counter("chase.evaluations").Value(),
            result.stats.evaluations);
  EXPECT_EQ(o.metrics.counter("chase.memo_hits").Value(),
            result.stats.memo_hits);
  EXPECT_EQ(o.metrics.counter("solve.runs").Value(), 1u);
  // Evaluate() observes its latency on the memo-hit path too.
  EXPECT_EQ(o.metrics.histogram("chase.evaluate_ns").Snap().count,
            result.stats.evaluations + result.stats.memo_hits);

  // The per-run phase breakdown names the solve span and the evaluation
  // phases. Its self times sum to everything the context traced: the solve
  // span plus the root evaluation, which runs before it in the context
  // constructor.
  ASSERT_FALSE(result.stats.phases.empty());
  double self_sum = 0;
  double solve_wall = 0;
  bool saw_eval = false;
  for (const obs::PhaseStat& p : result.stats.phases) {
    self_sum += p.self_seconds;
    if (p.name == "solve.AnsW") solve_wall = p.wall_seconds;
    if (p.name == "chase.evaluate") saw_eval = true;
  }
  EXPECT_TRUE(saw_eval);
  EXPECT_GT(solve_wall, 0.0);
  EXPECT_LT(solve_wall, self_sum);
  EXPECT_NEAR(self_sum, o.tracer.TotalTracedSeconds(), 1e-6);
}

// A solve record's phases and counters cover the same evaluations: every
// Evaluate call (memo hits included, the root evaluation too) opens one
// chase.evaluate span.
TEST_P(ObservedSolve, RecordPhasesCountEveryEvaluation) {
  ProductDemo demo;
  ChaseOptions opts;
  opts.budget = 4;
  opts.num_threads = GetParam();
  Request req{demo.Question(), opts, Algorithm::kAnsW};
  req.collect_report = true;
  const Response resp = Execute(demo.graph(), req);
  ASSERT_TRUE(resp.result.found());
  const obs::QueryLogRecord& rec = resp.report;
  ASSERT_GT(rec.evaluations, 0u);
  uint64_t evaluate_spans = 0;
  for (const obs::PhaseStat& p : rec.phases) {
    if (p.name == "chase.evaluate") evaluate_spans = p.count;
  }
  EXPECT_EQ(evaluate_spans, rec.evaluations + rec.memo_hits);
}

INSTANTIATE_TEST_SUITE_P(Threads, ObservedSolve, ::testing::Values(1, 4));

// ---- JSON emission audit: hostile names and values must not break the
// exported documents (the strict parser is the oracle). ----

TEST(MetricsJsonTest, HostileMetricNamesRoundTrip) {
  obs::Observability o;
  const std::string nasty = "evil\"name\\with\nnewline";
  o.metrics.counter(nasty).Inc(3);
  o.metrics.gauge("tab\tgauge").Set(-4);
  o.metrics.histogram("hist\x01ctrl").Observe(1000);
  const std::string doc = obs::ExportMetricsJson(o, 1.0);
  auto parsed = obs::ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << doc;
  const obs::JsonValue* metrics = parsed.value().Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const obs::JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->NumberOr(nasty, 0), 3.0);
  EXPECT_EQ(metrics->Find("gauges")->NumberOr("tab\tgauge", 0), -4.0);
  EXPECT_NE(metrics->Find("histograms")->Find("hist\x01ctrl"), nullptr);
}

TEST(MetricsJsonTest, HistogramExportCarriesP50P90P99) {
  obs::Observability o;
  obs::Histogram& h = o.metrics.histogram("lat");
  for (int i = 0; i < 90; ++i) h.Observe(100);
  for (int i = 0; i < 9; ++i) h.Observe(10000);
  h.Observe(1000000);
  auto parsed = obs::ParseJson(o.metrics.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue* lat = parsed.value().Find("histograms")->Find("lat");
  ASSERT_NE(lat, nullptr);
  const double p50 = lat->NumberOr("p50", 0);
  const double p90 = lat->NumberOr("p90", 0);
  const double p99 = lat->NumberOr("p99", 0);
  EXPECT_GT(p50, 0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // p90 lands in the 100-value bucket region, p99 above it (2x bucket error).
  EXPECT_LT(p90, 10000 * 2.0);
  EXPECT_GE(p99, 10000);
}

TEST(TracerJsonTest, HostileSpanNamesProduceValidChromeTrace) {
  obs::Tracer tracer;
  tracer.set_capture_events(true);
  {
    obs::TracerScope scope(&tracer);
    obs::ScopedSpan span(&tracer, "span\"with\\quotes\nand newline");
  }
  auto parsed = obs::ParseJson(tracer.ChromeTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
}

}  // namespace
}  // namespace wqe
