// Tests for the concurrent serving layer (serve::Server + serve::Replay):
// byte-identical answers under a many-client hammer, deadlines enforced from
// admission (queue wait counts against the budget), deterministic load
// shedding with structured kOverloaded statuses, per-request observability
// isolation with shared-artifact traffic attributed to the owner scope, and
// a query-log trace surviving the full record -> replay round trip.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "chase/eval.h"
#include "chase/solve.h"
#include "gen/datasets.h"
#include "gen/synthetic.h"
#include "obs/query_log.h"
#include "serve/replay.h"
#include "serve/server.h"
#include "workload/why_factory.h"

namespace wqe {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("wqe_serve_") + name + "_" +
           std::to_string(::getpid()) + ".jsonl"))
      .string();
}

Graph TestGraph() { return GenerateGraph(ImdbLike(0.05)); }

std::vector<BenchCase> TestCases(const Graph& g, size_t n) {
  WhyFactoryOptions factory;
  factory.query.num_edges = 3;
  factory.query.max_literals = 3;
  factory.disturb.num_ops = 3;
  factory.seed = 7;
  return MakeBenchCases(g, n, factory);
}

ChaseOptions TestChase() {
  ChaseOptions opts;
  opts.budget = 3;
  opts.beam = 2;
  opts.max_steps = 2000;
  return opts;
}

Request MakeRequest(const BenchCase& c, const ChaseOptions& opts, uint64_t id) {
  Request req;
  req.question = c.question;
  req.options = opts;
  req.algorithm = Algorithm::kAnsW;
  req.id = id;
  return req;
}

/// Answer identity: fingerprint of the best rewrite plus its matches — what
/// "byte-identical" means for a response.
std::string AnswerKey(const Response& resp) {
  if (!resp.found()) return "<none>";
  std::string key = resp.best().rewrite.Fingerprint();
  key += '|';
  for (NodeId v : resp.best().matches) {
    key += std::to_string(v);
    key += ',';
  }
  return key;
}

TEST(ServeTest, HammerMatchesSequentialByteForByte) {
  Graph g = TestGraph();
  const auto cases = TestCases(g, 3);
  ASSERT_FALSE(cases.empty());
  const ChaseOptions opts = TestChase();

  // Sequential reference through the same public entry point, no sharing.
  std::vector<std::string> reference;
  for (size_t i = 0; i < cases.size(); ++i) {
    const Response resp = Execute(g, MakeRequest(cases[i], opts, i));
    ASSERT_TRUE(resp.ok()) << resp.status.ToString();
    reference.push_back(AnswerKey(resp));
  }

  serve::ServerOptions sopts;
  sopts.concurrency = 4;
  serve::Server server(g, sopts);

  constexpr size_t kPasses = 6;
  std::vector<std::future<Response>> futures;
  for (size_t pass = 0; pass < kPasses; ++pass) {
    for (size_t i = 0; i < cases.size(); ++i) {
      futures.push_back(server.Submit(
          MakeRequest(cases[i], opts, pass * cases.size() + i)));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const Response resp = futures[i].get();
    ASSERT_TRUE(resp.ok()) << resp.status.ToString();
    EXPECT_EQ(resp.id, i);
    EXPECT_EQ(AnswerKey(resp), reference[i % reference.size()])
        << "concurrent solve diverged from the sequential reference";
  }
  const serve::Server::Stats stats = server.stats();
  EXPECT_EQ(stats.admitted, futures.size());
  EXPECT_EQ(stats.completed, futures.size());
  EXPECT_EQ(stats.shed, 0u);
}

TEST(ServeTest, DeadlineUnderLoadKeepsAnytimeAnswers) {
  Graph g = GenerateGraph(DbpediaLike(0.2));
  const auto cases = TestCases(g, 2);
  ASSERT_FALSE(cases.empty());

  ChaseOptions opts = TestChase();
  opts.max_steps = 1000000;  // the deadline, not the step cap, must stop us
  // Far below one solve's work on this graph, so the clock — not search
  // exhaustion — ends every request regardless of machine speed.
  opts.time_limit_seconds = 1e-4;

  serve::ServerOptions sopts;
  sopts.concurrency = 2;
  serve::Server server(g, sopts);

  std::vector<std::future<Response>> futures;
  for (size_t i = 0; i < 8; ++i) {
    futures.push_back(
        server.Submit(MakeRequest(cases[i % cases.size()], opts, i)));
  }
  size_t deadline_hits = 0;
  for (auto& f : futures) {
    const Response resp = f.get();
    ASSERT_TRUE(resp.ok()) << resp.status.ToString();
    if (resp.result.termination() == TerminationReason::kDeadline) {
      ++deadline_hits;
      // The anytime contract survives the serving layer: a deadline under
      // load still returns the best answer found so far, never nothing.
      EXPECT_TRUE(resp.found());
    }
  }
  // With 8 requests racing 20ms budgets on this graph, at least one must be
  // stopped by the clock — otherwise the test is not exercising the path.
  EXPECT_GT(deadline_hits, 0u);
}

TEST(ServeTest, QueueWaitCountsAgainstDeadline) {
  Graph g = TestGraph();
  const auto cases = TestCases(g, 1);
  ASSERT_FALSE(cases.empty());

  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  serve::ServerOptions sopts;
  sopts.concurrency = 1;
  sopts.on_execute = [&](const Request&) {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return release; });
  };
  serve::Server server(g, sopts);

  ChaseOptions opts = TestChase();
  auto blocker = server.Submit(MakeRequest(cases[0], opts, 0));

  // The second request's 1ms budget burns away while it waits behind the
  // blocked request: by execution time its deadline (armed at admission)
  // has expired, so it must terminate kDeadline with the root answer.
  ChaseOptions timed = opts;
  timed.time_limit_seconds = 0.001;
  auto queued = server.Submit(MakeRequest(cases[0], timed, 1));

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();

  ASSERT_TRUE(blocker.get().ok());
  const Response late = queued.get();
  ASSERT_TRUE(late.ok()) << late.status.ToString();
  EXPECT_EQ(late.result.termination(), TerminationReason::kDeadline);
  EXPECT_TRUE(late.found());
  EXPECT_GT(late.queue_seconds, 0.0);
}

TEST(ServeTest, SaturationShedsWithStructuredStatus) {
  Graph g = TestGraph();
  const auto cases = TestCases(g, 1);
  ASSERT_FALSE(cases.empty());
  const ChaseOptions opts = TestChase();

  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  serve::ServerOptions sopts;
  sopts.concurrency = 1;
  sopts.max_queue = 1;
  sopts.on_execute = [&](const Request&) {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return release; });
  };
  serve::Server server(g, sopts);

  // First request occupies the single executor (blocked in the hook)...
  auto executing = server.Submit(MakeRequest(cases[0], opts, 0));
  while (true) {
    const serve::Server::Stats s = server.stats();
    if (s.executing == 1 && s.queued == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // ...the second fills the queue bound, and the third must be shed — a
  // deterministic saturation, no timing races.
  auto waiting = server.Submit(MakeRequest(cases[0], opts, 1));
  auto shed = server.Submit(MakeRequest(cases[0], opts, 2));

  const Response rejected = shed.get();  // sheds complete immediately
  EXPECT_EQ(rejected.status.code(), Status::Code::kOverloaded);
  EXPECT_FALSE(rejected.found());
  EXPECT_EQ(rejected.id, 2u);

  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  EXPECT_TRUE(executing.get().ok());
  EXPECT_TRUE(waiting.get().ok());

  const serve::Server::Stats stats = server.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(server.observability().metrics.counter("serve.shed").Value(), 1u);
}

TEST(ServeTest, InvalidRequestRejectedAtAdmission) {
  Graph g = TestGraph();
  const auto cases = TestCases(g, 1);
  ASSERT_FALSE(cases.empty());
  serve::Server server(g, {});

  ChaseOptions bad = TestChase();
  bad.beam = 0;
  const Response resp = server.Serve(MakeRequest(cases[0], bad, 0));
  EXPECT_EQ(resp.status.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(server.stats().admitted, 0u);
}

TEST(ServeTest, SharedCacheTrafficStaysInOwnerScope) {
  Graph g = TestGraph();
  const auto cases = TestCases(g, 2);
  ASSERT_FALSE(cases.empty());

  // The test owns the shared artifacts and wires the cache's observability
  // exactly once (the ownership rule the server follows).
  obs::Observability owner;
  ViewCache shared_cache;
  shared_cache.set_observability(&owner);
  Matcher::SharedPlans shared_plans;
  GraphIndexes indexes(g, /*num_threads=*/1);

  obs::Observability req_a, req_b;
  for (size_t i = 0; i < cases.size(); ++i) {
    ChaseOptions opts = TestChase();
    opts.observability = i == 0 ? &req_a : &req_b;
    ChaseContext ctx(g, &indexes, &shared_cache, &shared_plans,
                     cases[i].question, opts);
    const Response resp = ExecuteWithContext(ctx, Algorithm::kAnsW);
    ASSERT_TRUE(resp.ok());
  }

  // Shared-cache traffic lands in the owner scope only; the per-request
  // scopes never see another request's (or the cache's) counters.
  const uint64_t owner_traffic =
      owner.metrics.counter("cache.hits").Value() +
      owner.metrics.counter("cache.misses").Value();
  EXPECT_GT(owner_traffic, 0u);
  for (obs::Observability* req : {&req_a, &req_b}) {
    EXPECT_EQ(req->metrics.counter("cache.hits").Value(), 0u);
    EXPECT_EQ(req->metrics.counter("cache.misses").Value(), 0u);
  }
}

TEST(ServeTest, QueryLogRecordsCarryTheirOwnViewTraffic) {
  Graph g = TestGraph();
  const auto cases = TestCases(g, 4);
  ASSERT_FALSE(cases.empty());
  const std::string path = TempPath("views");
  std::remove(path.c_str());

  // The shared cache counts into the server scope; each record must carry
  // the lookups of its own solve, root evaluation included.
  obs::Observability scope;
  {
    auto log = obs::QueryLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    serve::ServerOptions sopts;
    sopts.concurrency = 1;
    sopts.observability = &scope;
    sopts.query_log = log.value().get();
    serve::Server server(g, sopts);
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < cases.size(); ++i) {
        ASSERT_TRUE(server.Serve(MakeRequest(cases[i], TestChase(), i)).ok());
      }
    }
  }

  auto loaded = obs::QueryLog::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto& records = loaded.value().records;
  ASSERT_EQ(records.size(), 2 * cases.size());
  uint64_t lookups = 0;
  for (size_t r = 0; r < records.size(); ++r) {
    lookups += records[r].cache_hits + records[r].cache_misses;
    if (r < cases.size()) continue;
    // Second pass: every table the solve reads is already shared.
    EXPECT_GT(records[r].cache_hits, 0u) << "record " << r;
    EXPECT_EQ(records[r].tables_built, 0u) << "record " << r;
  }
  EXPECT_EQ(lookups, scope.metrics.counter("cache.hits").Value() +
                         scope.metrics.counter("cache.misses").Value());
  std::remove(path.c_str());
}

TEST(ServeTest, PerRequestCountersFoldIntoServerScope) {
  Graph g = TestGraph();
  const auto cases = TestCases(g, 2);
  ASSERT_FALSE(cases.empty());
  const ChaseOptions opts = TestChase();

  obs::Observability scope;
  serve::ServerOptions sopts;
  sopts.concurrency = 2;
  sopts.observability = &scope;
  {
    serve::Server server(g, sopts);
    std::vector<std::future<Response>> futures;
    for (size_t i = 0; i < 4; ++i) {
      futures.push_back(
          server.Submit(MakeRequest(cases[i % cases.size()], opts, i)));
    }
    for (auto& f : futures) ASSERT_TRUE(f.get().ok());

    EXPECT_EQ(scope.metrics.counter("serve.admitted").Value(), 4u);
    EXPECT_EQ(scope.metrics.counter("serve.completed").Value(), 4u);
    EXPECT_EQ(scope.metrics.histogram("serve.latency_ns").Snap().count, 4u);
    // Phase totals merged across requests: the per-solve breakdowns carry a
    // top-level solve phase each, so the merge must count every request.
    uint64_t phase_total = 0;
    for (const obs::PhaseStat& p : server.MergedPhases()) {
      phase_total += p.count;
    }
    EXPECT_GT(phase_total, 0u);
  }
}

TEST(ServeTest, QueryLogRoundTripThroughReplay) {
  Graph g = TestGraph();
  const auto cases = TestCases(g, 3);
  ASSERT_FALSE(cases.empty());
  const std::string path = TempPath("roundtrip");
  std::remove(path.c_str());

  // Record: sequential solves through the public entry point, provenance
  // into a query log.
  {
    auto log = obs::QueryLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ChaseOptions opts = TestChase();
    opts.query_log = log.value().get();
    GraphIndexes indexes(g, /*num_threads=*/1);
    for (size_t i = 0; i < cases.size(); ++i) {
      const Response resp = Execute(g, &indexes, nullptr, nullptr,
                                    MakeRequest(cases[i], opts, i));
      ASSERT_TRUE(resp.ok()) << resp.status.ToString();
    }
    ASSERT_EQ(log.value()->records_written(), cases.size());
  }

  auto loaded = obs::QueryLog::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().records.size(), cases.size());

  // Replay the trace concurrently: every record must parse back, solve, and
  // reproduce the recorded answer fingerprint exactly.
  serve::ServerOptions sopts;
  sopts.concurrency = 3;
  serve::Server server(g, sopts);
  serve::ReplayOptions ropts;
  ropts.options = TestChase();
  ropts.repeat = 2;
  const serve::ReplayStats stats =
      serve::Replay(server, g, loaded.value().records, ropts);

  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_EQ(stats.submitted, cases.size() * 2);
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.mismatched, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.failed, 0u);
  // Every completion contributed one admission-to-completion measurement.
  EXPECT_EQ(stats.latency_samples, stats.completed);
  EXPECT_NE(stats.ToString().find("samples"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ReplayStatsTest, EmptyLatencySnapshotIsReportedExplicitly) {
  // A run where nothing completed (everything shed, or no replayable
  // records) has no latency samples: the quantile fields stay an explicit 0
  // and ToString says so instead of printing fabricated zeros as quantiles.
  serve::ReplayStats stats;
  EXPECT_EQ(stats.latency_samples, 0u);
  EXPECT_DOUBLE_EQ(stats.latency_p50_ms, 0.0);
  EXPECT_NE(stats.ToString().find("latency ms: no samples"),
            std::string::npos);

  stats.latency_samples = 3;
  stats.latency_mean_ms = 1.5;
  EXPECT_EQ(stats.ToString().find("no samples"), std::string::npos);
  EXPECT_NE(stats.ToString().find("(3 samples)"), std::string::npos);
}

TEST(ServeTest, OpenLoopReplayPacesAgainstAbsoluteDeadlines) {
  Graph g = TestGraph();
  const auto cases = TestCases(g, 2);
  ASSERT_FALSE(cases.empty());
  const std::string path = TempPath("pacing");
  std::remove(path.c_str());
  {
    auto log = obs::QueryLog::Open(path);
    ASSERT_TRUE(log.ok());
    ChaseOptions opts = TestChase();
    opts.query_log = log.value().get();
    GraphIndexes indexes(g, /*num_threads=*/1);
    for (size_t i = 0; i < cases.size(); ++i) {
      const Response resp = Execute(g, &indexes, nullptr, nullptr,
                                    MakeRequest(cases[i], opts, i));
      ASSERT_TRUE(resp.ok()) << resp.status.ToString();
    }
  }
  auto loaded = obs::QueryLog::Load(path);
  ASSERT_TRUE(loaded.ok());

  serve::ServerOptions sopts;
  sopts.concurrency = 2;
  serve::Server server(g, sopts);
  serve::ReplayOptions ropts;
  ropts.options = TestChase();
  ropts.repeat = 4;
  ropts.qps = 100;  // 10ms spacing; 8 arrivals span >= 70ms by construction
  const serve::ReplayStats stats =
      serve::Replay(server, g, loaded.value().records, ropts);

  ASSERT_GT(stats.submitted, 1u);
  // sleep_until against absolute send deadlines: no request may depart
  // before its scheduled instant, so the achieved arrival rate can never
  // exceed the requested one (only lag it on an overloaded machine).
  EXPECT_GT(stats.arrival_qps, 0.0);
  EXPECT_LE(stats.arrival_qps, ropts.qps * 1.05);
  EXPECT_GE(stats.submit_seconds,
            static_cast<double>(stats.submitted - 1) / ropts.qps * 0.95);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wqe
