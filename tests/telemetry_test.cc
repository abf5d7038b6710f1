// Tests for the live-telemetry layer: the sliding-window SLO histograms,
// the seqlock flight recorder (including under a concurrent hammer — the
// TSan stage runs these), the HTTP/1.0 exposition server and its three
// documents (/statusz, /metricsz, /requestz), the Prometheus text render,
// and the canonical metric-name inventory that keeps DESIGN.md's table
// honest against what the code actually registers.

#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chase/report.h"
#include "chase/solve.h"
#include "gen/datasets.h"
#include "gen/synthetic.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metric_names.h"
#include "serve/server.h"
#include "workload/why_factory.h"

namespace wqe {
namespace {

// ---------------------------------------------------------------------------
// SlidingHistogram

TEST(SlidingHistogramTest, ObservationsExpireWithTheWindow) {
  // 8-slot ring over an 8-second window -> 1s epochs. Drive time explicitly.
  obs::SlidingHistogram w(8.0);
  const uint64_t t0 = uint64_t{1} << 40;  // arbitrary epoch-aligned-ish base
  w.ObserveAt(1000, t0);
  EXPECT_EQ(w.SnapAt(t0).count, 1u);
  // Still inside the window a few seconds later.
  EXPECT_EQ(w.SnapAt(t0 + 3'000'000'000ull).count, 1u);
  // A full window later the slot has aged out.
  EXPECT_EQ(w.SnapAt(t0 + 9'000'000'000ull).count, 0u);
}

TEST(SlidingHistogramTest, MergesAcrossEpochSlots) {
  obs::SlidingHistogram w(8.0);
  const uint64_t t0 = uint64_t{1} << 40;
  for (int s = 0; s < 5; ++s) {
    w.ObserveAt(100 * (s + 1), t0 + s * 1'000'000'000ull);
  }
  const obs::Histogram::Snapshot snap = w.SnapAt(t0 + 4'500'000'000ull);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 100u + 200 + 300 + 400 + 500);
}

TEST(SlidingHistogramTest, SlotReclaimDropsOnlyAgedEpochs) {
  obs::SlidingHistogram w(8.0);
  const uint64_t t0 = uint64_t{1} << 40;
  w.ObserveAt(7, t0);
  // 8 epochs later the writer lands on the same ring slot; the old epoch's
  // tally must not leak into the new one.
  w.ObserveAt(9, t0 + 8'000'000'000ull);
  const obs::Histogram::Snapshot snap = w.SnapAt(t0 + 8'000'000'000ull);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 9u);
}

TEST(SlidingHistogramTest, ConcurrentObserversLoseNothingWithinOneEpoch) {
  obs::SlidingHistogram w(60.0);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&w] {
      for (int i = 0; i < kPerThread; ++i) w.Observe(50);
    });
  }
  for (std::thread& worker : workers) worker.join();
  // All observations land within one 7.5s epoch (the loop takes far less),
  // so the snap must account for every single one.
  EXPECT_EQ(w.Snap().count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// FlightRecorder

obs::RequestDigest MakeDigest(uint64_t id, uint64_t total_ns) {
  obs::RequestDigest d;
  d.id = id;
  d.question_fp = 0xabcdef0123456789ull;
  d.queue_ns = 1000;
  d.solve_ns = total_ns / 2;
  d.total_ns = total_ns;
  d.answer_bytes = 64;
  d.status_code = 0;
  d.termination = 1;
  d.set_algorithm("AnsW");
  std::snprintf(d.phases[0].name, sizeof(d.phases[0].name), "evaluate");
  d.phases[0].self_ns = total_ns / 3;
  return d;
}

TEST(FlightRecorderTest, RingKeepsLastKNewestFirst) {
  obs::FlightRecorder::Options fopts;
  fopts.capacity = 4;
  fopts.slow_threshold_ns = 0;
  obs::FlightRecorder fr(fopts);
  for (uint64_t i = 0; i < 10; ++i) fr.Record(MakeDigest(i, 1000));
  EXPECT_EQ(fr.recorded(), 10u);
  const std::vector<obs::RequestDigest> recent = fr.Recent();
  ASSERT_EQ(recent.size(), 4u);
  EXPECT_EQ(recent[0].id, 9u);
  EXPECT_EQ(recent[3].id, 6u);
  EXPECT_EQ(recent[0].sequence, 9u);  // recorder-assigned completion order
}

TEST(FlightRecorderTest, SlowTierSurvivesFastTraffic) {
  obs::FlightRecorder::Options fopts;
  fopts.capacity = 8;
  fopts.slow_capacity = 4;
  fopts.slow_threshold_ns = 1'000'000;
  obs::FlightRecorder fr(fopts);
  fr.Record(MakeDigest(1, 5'000'000));  // slow
  // A burst of fast requests flushes the recent ring entirely...
  for (uint64_t i = 100; i < 120; ++i) fr.Record(MakeDigest(i, 10));
  EXPECT_EQ(fr.slow_recorded(), 1u);
  const std::vector<obs::RequestDigest> slow = fr.Slow();
  // ...but the slow outlier is still retained in its own tier.
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].id, 1u);
  for (const obs::RequestDigest& d : fr.Recent()) EXPECT_GE(d.id, 100u);
}

TEST(FlightRecorderTest, ToJsonIsStrictJson) {
  obs::FlightRecorder fr;
  fr.Record(MakeDigest(7, 300'000'000));  // past default slow threshold
  const Result<obs::JsonValue> doc = obs::ParseJson(fr.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.value().NumberOr("recorded", 0), 1.0);
  EXPECT_EQ(doc.value().NumberOr("slow_recorded", 0), 1.0);
  const obs::JsonValue* recent = doc.value().Find("recent");
  ASSERT_NE(recent, nullptr);
  ASSERT_EQ(recent->items.size(), 1u);
  EXPECT_EQ(recent->items[0].NumberOr("id", 0), 7.0);
  EXPECT_EQ(recent->items[0].StringOr("algorithm", ""), "AnsW");
  EXPECT_EQ(recent->items[0].StringOr("question_fp", ""), "abcdef0123456789");
}

TEST(FlightRecorderTest, ConcurrentWritersAndReadersNeverTear) {
  obs::FlightRecorder::Options fopts;
  fopts.capacity = 32;
  fopts.slow_threshold_ns = 0;
  obs::FlightRecorder fr(fopts);

  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&fr, t] {
      for (uint64_t i = 0; i < 20000; ++i) {
        // Writer t stamps every field with the same value; a torn read mixes
        // two writers' slots and trips the consistency check below.
        obs::RequestDigest d;
        const uint64_t tag = static_cast<uint64_t>(t) * 1'000'000 + i;
        d.id = tag;
        d.question_fp = tag;
        d.queue_ns = tag;
        d.solve_ns = tag;
        d.total_ns = tag;
        d.answer_bytes = tag;
        d.set_algorithm("AnsW");
        fr.Record(d);
      }
    });
  }
  std::thread reader([&fr, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const obs::RequestDigest& d : fr.Recent()) {
        EXPECT_EQ(d.id, d.question_fp);
        EXPECT_EQ(d.id, d.total_ns);
        EXPECT_EQ(d.id, d.answer_bytes);
      }
    }
  });
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(fr.recorded(), static_cast<uint64_t>(kWriters) * 20000);
}

TEST(FlightRecorderTest, DigestPhasesPicksTopPhasesBySelfTime) {
  std::vector<obs::PhaseStat> phases;
  const char* names[] = {"tiny", "evaluate", "refine", "verify", "score",
                         "prune"};
  const double selfs[] = {0.0001, 0.5, 0.3, 0.2, 0.1, 0.05};
  for (int i = 0; i < 6; ++i) {
    obs::PhaseStat p;
    p.name = names[i];
    p.self_seconds = selfs[i];
    phases.push_back(p);
  }
  obs::RequestDigest d;
  ChaseReport::DigestPhases(phases, d);
  EXPECT_STREQ(d.phases[0].name, "evaluate");
  EXPECT_STREQ(d.phases[1].name, "refine");
  EXPECT_STREQ(d.phases[2].name, "verify");
  EXPECT_STREQ(d.phases[3].name, "score");
  EXPECT_EQ(d.phases[0].self_ns, 500'000'000u);
}

// ---------------------------------------------------------------------------
// TelemetryServer + HttpGet

TEST(TelemetryServerTest, ServesRegisteredRoutesOnEphemeralPort) {
  obs::TelemetryServer server;
  server.Handle("/statusz", "application/json",
                [] { return std::string("{\"ok\":true}"); });
  server.Handle("/textz", "text/plain", [] { return std::string("hello\n"); });
  obs::TelemetryOptions topts;
  topts.port = 0;
  ASSERT_TRUE(server.Start(topts).ok());
  ASSERT_NE(server.port(), 0);

  const Result<std::string> statusz =
      obs::HttpGet("127.0.0.1", server.port(), "/statusz");
  ASSERT_TRUE(statusz.ok()) << statusz.status().ToString();
  EXPECT_EQ(statusz.value(), "{\"ok\":true}");

  // Query strings are stripped before route lookup.
  const Result<std::string> with_query =
      obs::HttpGet("127.0.0.1", server.port(), "/textz?verbose=1");
  ASSERT_TRUE(with_query.ok());
  EXPECT_EQ(with_query.value(), "hello\n");

  EXPECT_EQ(server.requests_served(), 2u);

  // Unknown paths 404; HttpGet surfaces the non-200 as a status.
  EXPECT_FALSE(obs::HttpGet("127.0.0.1", server.port(), "/nope").ok());

  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST(TelemetryServerTest, DoubleStartIsRejected) {
  obs::TelemetryServer server;
  obs::TelemetryOptions topts;
  topts.port = 0;
  ASSERT_TRUE(server.Start(topts).ok());
  EXPECT_FALSE(server.Start(topts).ok());
  server.Stop();
}

TEST(TelemetryServerTest, IdleHookRunsWithoutTraffic) {
  obs::TelemetryServer server;
  std::atomic<int> ticks{0};
  server.set_idle_hook([&ticks] { ticks.fetch_add(1); });
  obs::TelemetryOptions topts;
  topts.port = 0;
  ASSERT_TRUE(server.Start(topts).ok());
  for (int i = 0; i < 100 && ticks.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server.Stop();
  EXPECT_GT(ticks.load(), 0);
}

TEST(PrometheusTextTest, RendersEveryRegistryKind) {
  obs::MetricsRegistry reg;
  reg.counter("serve.completed").Inc(3);
  reg.gauge("cache.entries").Set(17);
  reg.histogram("serve.latency_ns").Observe(1000);
  reg.sliding("solve.AnsW.latency_ns", 60.0).Observe(2000);
  const std::string text = obs::PrometheusText(reg);
  EXPECT_NE(text.find("# TYPE wqe_serve_completed counter\n"
                      "wqe_serve_completed 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE wqe_cache_entries gauge\n"
                      "wqe_cache_entries 17\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE wqe_serve_latency_ns summary"),
            std::string::npos);
  EXPECT_NE(text.find("wqe_serve_latency_ns_count 1"), std::string::npos);
  // Sliding windows get a _window suffix so they never collide with the
  // lifetime histogram of the same name.
  EXPECT_NE(text.find("wqe_solve_AnsW_latency_ns_window_count 1"),
            std::string::npos);
  EXPECT_NE(text.find("wqe_solve_AnsW_latency_ns_window_seconds 60"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Server integration

Graph TestGraph() { return GenerateGraph(ImdbLike(0.05)); }

std::vector<BenchCase> TestCases(const Graph& g, size_t n) {
  WhyFactoryOptions factory;
  factory.query.num_edges = 3;
  factory.query.max_literals = 3;
  factory.disturb.num_ops = 3;
  factory.seed = 7;
  return MakeBenchCases(g, n, factory);
}

Request MakeRequest(const BenchCase& c, uint64_t id) {
  Request req;
  req.question = c.question;
  req.options.budget = 3;
  req.options.beam = 2;
  req.options.max_steps = 2000;
  req.algorithm = Algorithm::kAnsW;
  req.id = id;
  return req;
}

TEST(ServeTelemetryTest, StatuszAgreesWithServerStats) {
  Graph g = TestGraph();
  const auto cases = TestCases(g, 2);
  ASSERT_FALSE(cases.empty());

  serve::ServerOptions sopts;
  sopts.concurrency = 2;
  sopts.telemetry_port = 0;  // ephemeral
  serve::Server server(g, sopts);
  ASSERT_TRUE(server.telemetry_status().ok())
      << server.telemetry_status().ToString();
  ASSERT_NE(server.telemetry_port(), 0);

  constexpr size_t kRequests = 6;
  std::vector<std::future<Response>> futures;
  for (size_t i = 0; i < kRequests; ++i) {
    futures.push_back(server.Submit(MakeRequest(cases[i % cases.size()], i)));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());

  const Result<std::string> body =
      obs::HttpGet("127.0.0.1", server.telemetry_port(), "/statusz");
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  const Result<obs::JsonValue> doc = obs::ParseJson(body.value());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << body.value();

  const obs::JsonValue* requests = doc.value().Find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->NumberOr("admitted", -1), double(kRequests));
  EXPECT_EQ(requests->NumberOr("completed", -1), double(kRequests));
  EXPECT_EQ(requests->NumberOr("shed", -1), 0.0);
  EXPECT_EQ(requests->NumberOr("deadline_expired", -1), 0.0);

  const obs::JsonValue* latency = doc.value().Find("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->NumberOr("count", -1), double(kRequests));
  EXPECT_GT(latency->NumberOr("p50_ms", 0), 0.0);

  const obs::JsonValue* flight = doc.value().Find("flight");
  ASSERT_NE(flight, nullptr);
  EXPECT_EQ(flight->NumberOr("recorded", -1), double(kRequests));

  EXPECT_GT(doc.value().NumberOr("uptime_seconds", 0), 0.0);

  // The Stats extension mirrors the exposed document.
  const serve::Server::Stats stats = server.stats();
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.deadline_expired, 0u);
  EXPECT_GT(stats.latency_p50_ms, 0.0);
  EXPECT_GE(stats.latency_p99_ms, stats.latency_p50_ms);
}

TEST(ServeTelemetryTest, MetricszMatchesInProcessRegistryWalk) {
  Graph g = TestGraph();
  const auto cases = TestCases(g, 1);
  ASSERT_FALSE(cases.empty());

  serve::ServerOptions sopts;
  sopts.concurrency = 1;
  sopts.telemetry_port = 0;
  serve::Server server(g, sopts);
  ASSERT_NE(server.telemetry_port(), 0);
  ASSERT_TRUE(server.Serve(MakeRequest(cases[0], 1)).ok());
  server.Drain();

  const Result<std::string> scraped =
      obs::HttpGet("127.0.0.1", server.telemetry_port(), "/metricsz");
  ASSERT_TRUE(scraped.ok()) << scraped.status().ToString();
  // The server is idle between Drain() and the scrape, so the exposition
  // must be byte-identical to an in-process render of the same registry.
  EXPECT_EQ(scraped.value(), obs::PrometheusText(server.observability().metrics));
  EXPECT_NE(scraped.value().find("wqe_serve_completed 1"), std::string::npos);
  EXPECT_NE(scraped.value().find("wqe_solve_AnsW_latency_ns_window_count 1"),
            std::string::npos);
}

TEST(ServeTelemetryTest, RequestzCarriesPerRequestDigests) {
  Graph g = TestGraph();
  const auto cases = TestCases(g, 2);
  ASSERT_FALSE(cases.empty());

  serve::ServerOptions sopts;
  sopts.concurrency = 2;
  sopts.telemetry_port = 0;
  serve::Server server(g, sopts);
  ASSERT_NE(server.telemetry_port(), 0);

  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(server.Serve(MakeRequest(cases[i % cases.size()], 100 + i)).ok());
  }

  const Result<std::string> body =
      obs::HttpGet("127.0.0.1", server.telemetry_port(), "/requestz");
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  const Result<obs::JsonValue> doc = obs::ParseJson(body.value());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.value().NumberOr("recorded", -1), 4.0);
  const obs::JsonValue* recent = doc.value().Find("recent");
  ASSERT_NE(recent, nullptr);
  ASSERT_EQ(recent->items.size(), 4u);
  // Newest first; ids echo Request::id.
  EXPECT_EQ(recent->items[0].NumberOr("id", -1), 103.0);
  EXPECT_EQ(recent->items[3].NumberOr("id", -1), 100.0);
  for (const obs::JsonValue& d : recent->items) {
    EXPECT_EQ(d.StringOr("algorithm", ""), "AnsW");
    EXPECT_GT(d.NumberOr("total_ms", 0), 0.0);
    const obs::JsonValue* phases = d.Find("phases");
    ASSERT_NE(phases, nullptr);
    EXPECT_FALSE(phases->items.empty())
        << "digests should carry the solve's top phases";
  }
  // Identical questions collapse to one fingerprint; distinct ones differ.
  const std::string fp0 = recent->items[0].StringOr("question_fp", "");
  const std::string fp1 = recent->items[1].StringOr("question_fp", "");
  const std::string fp2 = recent->items[2].StringOr("question_fp", "");
  EXPECT_EQ(fp0, fp2);  // ids 103 and 101 asked the same question
  if (cases.size() >= 2) {
    EXPECT_NE(fp0, fp1);
  }
}

// ---------------------------------------------------------------------------
// Metric inventory (DESIGN.md honesty)

TEST(MetricInventoryTest, EveryRuntimeMetricNameIsCanonical) {
  Graph g = TestGraph();
  const auto cases = TestCases(g, 1);
  ASSERT_FALSE(cases.empty());

  serve::ServerOptions sopts;
  sopts.concurrency = 1;
  serve::Server server(g, sopts);
  ASSERT_TRUE(server.Serve(MakeRequest(cases[0], 1)).ok());

  std::vector<std::string> unknown;
  const obs::MetricsRegistry& m = server.observability().metrics;
  const auto check = [&unknown](const std::string& name) {
    if (!obs::IsKnownMetricName(name)) unknown.push_back(name);
  };
  m.ForEachCounter([&check](const std::string& name, uint64_t) { check(name); });
  m.ForEachGauge([&check](const std::string& name, int64_t) { check(name); });
  m.ForEachHistogram(
      [&check](const std::string& name, const obs::Histogram::Snapshot&) {
        check(name);
      });
  m.ForEachSliding([&check](const std::string& name,
                            const obs::Histogram::Snapshot&,
                            double) { check(name); });
  EXPECT_TRUE(unknown.empty())
      << "metric names missing from obs/metric_names.h (add them there AND "
         "to DESIGN.md's inventory table): "
      << [&unknown] {
           std::string joined;
           for (const std::string& n : unknown) joined += n + " ";
           return joined;
         }();
}

TEST(MetricInventoryTest, SolvesReportRenderAndForwardPruneCounters) {
  Graph g = TestGraph();
  const auto cases = TestCases(g, 1);
  ASSERT_FALSE(cases.empty());
  obs::Observability scope;
  Request req = MakeRequest(cases[0], 1);
  req.options.observability = &scope;
  ASSERT_TRUE(Execute(g, req).ok());

  std::map<std::string, uint64_t> counters;
  scope.metrics.ForEachCounter(
      [&counters](const std::string& name, uint64_t value) {
        counters[name] = value;
      });
  // One key per materialized rewrite, rendered before dedup: a solve that
  // took steps rendered at most one per step.
  ASSERT_TRUE(counters.count("chase.fingerprint_renders"));
  ASSERT_GT(counters["chase.steps"], 0u);
  EXPECT_GT(counters["chase.fingerprint_renders"], 0u);
  EXPECT_LE(counters["chase.fingerprint_renders"], counters["chase.steps"]);
  EXPECT_TRUE(counters.count("match.forward_prunes"));
}

TEST(MetricInventoryTest, SolvesSplitDeltaChildrenByRule) {
  Graph g = TestGraph();
  const auto cases = TestCases(g, 1);
  ASSERT_FALSE(cases.empty());
  obs::Observability scope;
  Request req = MakeRequest(cases[0], 1);
  req.options.observability = &scope;
  const Response resp = Execute(g, req);
  ASSERT_TRUE(resp.ok());

  std::map<std::string, uint64_t> counters;
  scope.metrics.ForEachCounter(
      [&counters](const std::string& name, uint64_t value) {
        counters[name] = value;
      });
  uint64_t children = 0;
  uint64_t fills = 0;
  for (const char* rule :
       {"refine", "relax", "focus_literal", "literal_family"}) {
    for (const char* what :
         {"children", "candidates", "survivors", "ball_fills"}) {
      const std::string name =
          std::string("delta_eval.") + rule + "." + what;
      ASSERT_TRUE(counters.count(name)) << name;
      EXPECT_TRUE(obs::IsKnownMetricName(name)) << name;
    }
    children += counters[std::string("delta_eval.") + rule + ".children"];
    fills += counters[std::string("delta_eval.") + rule + ".ball_fills"];
  }
  // The root's evaluation fills balls outside every rule.
  EXPECT_LE(fills, counters["match.ball.fills"]);
  for (const char* name :
       {"delta_eval.projection_builds", "delta_eval.projection_fallbacks",
        "match.projection_states"}) {
    EXPECT_TRUE(counters.count(name)) << name;
  }
  // Every delta child is decided by exactly one rule, and the solve's
  // ChaseStats carry the same split as the registry.
  ASSERT_GT(counters["delta_eval.hits"], 0u);
  EXPECT_EQ(children, counters["delta_eval.hits"]);
  const ChaseStats& s = resp.result.stats;
  EXPECT_EQ(s.delta_refine, counters["delta_eval.refine.children"]);
  EXPECT_EQ(s.delta_relax, counters["delta_eval.relax.children"]);
  EXPECT_EQ(s.delta_focus_literal,
            counters["delta_eval.focus_literal.children"]);
  EXPECT_EQ(s.delta_literal_family,
            counters["delta_eval.literal_family.children"]);
}

TEST(MetricInventoryTest, DesignDocTableListsEveryCanonicalName) {
  std::ifstream in(WQE_SOURCE_DIR "/DESIGN.md");
  ASSERT_TRUE(in.good()) << "DESIGN.md not found at " WQE_SOURCE_DIR;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();

  std::vector<std::string> missing;
  for (std::string_view name : obs::kKnownMetricNames) {
    if (doc.find("`" + std::string(name) + "`") == std::string::npos) {
      missing.push_back(std::string(name));
    }
  }
  for (const obs::MetricNameFamily& family : obs::kKnownMetricFamilies) {
    if (doc.find("`" + std::string(family.example) + "`") ==
        std::string::npos) {
      missing.push_back(std::string(family.example));
    }
  }
  EXPECT_TRUE(missing.empty()) << [&missing] {
    std::string joined =
        "DESIGN.md's metric inventory table is missing: ";
    for (const std::string& n : missing) joined += "`" + n + "` ";
    return joined;
  }();
}

}  // namespace
}  // namespace wqe
