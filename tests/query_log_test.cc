#include "obs/query_log.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "chase/differential.h"
#include "chase/report.h"
#include "chase/solve.h"
#include "gen/product_demo.h"
#include "obs/json.h"

namespace wqe {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("wqe_qlog_") + name + "_" +
           std::to_string(::getpid()) + ".jsonl"))
      .string();
}

obs::QueryLogRecord SampleRecord(int i) {
  obs::QueryLogRecord rec;
  rec.algorithm = "AnsW";
  rec.question_kind = "why";
  rec.query_text = "wqe-query v1\nfocus 0\nnode 0 Product\n";
  rec.exemplar_text = "wqe-exemplar v1\ntuple price=840.5\n";
  rec.graph_fingerprint = 0xdeadbeefcafe0000ull + i;
  rec.options_fingerprint = 0x1234567890abcdefull;
  rec.termination = "exhausted";
  rec.status = "OK";
  rec.elapsed_seconds = 0.25 + i;
  rec.num_answers = 2;
  rec.closeness = 0.75;
  rec.cl_star = 0.9;
  rec.satisfied = true;
  rec.answer_fingerprint = "fp;with\"quote";
  rec.steps = 100 + i;
  rec.evaluations = 90;
  rec.memo_hits = 10;
  rec.ops_generated = 40;
  rec.pruned = 5;
  rec.cache_hits = 7;
  rec.cache_misses = 3;
  rec.tables_built = 3;
  rec.store_hits = 1;
  rec.store_misses = 2;
  rec.delta_hits = 90;
  rec.delta_full_fallbacks = 1;
  rec.delta_refine = 11;
  rec.delta_relax = 12;
  rec.delta_focus_literal = 30;
  rec.delta_literal_family = 37;
  rec.ops.push_back({"RxB(u0->u1 2->3)", "relax", 1.5});
  rec.ops.push_back({"AddL(u1.name = \"x\")", "refine", 1.0});
  obs::PhaseStat phase;
  phase.name = "chase.evaluate";
  phase.count = 90;
  phase.wall_seconds = 0.2;
  phase.self_seconds = 0.1;
  phase.cpu_seconds = 0.19;
  rec.phases.push_back(phase);
  return rec;
}

TEST(QueryLogRecordTest, JsonRoundTripPreservesEveryField) {
  const obs::QueryLogRecord rec = SampleRecord(1);
  auto parsed = obs::ParseJson(rec.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto back = obs::QueryLogRecord::FromJson(parsed.value());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const obs::QueryLogRecord& r = back.value();
  EXPECT_EQ(r.algorithm, rec.algorithm);
  EXPECT_EQ(r.question_kind, rec.question_kind);
  // The replayable-trace fields round-trip with their embedded newlines —
  // the replay driver re-parses them via QueryText/ExemplarText verbatim.
  EXPECT_EQ(r.query_text, rec.query_text);
  EXPECT_EQ(r.exemplar_text, rec.exemplar_text);
  EXPECT_EQ(r.graph_fingerprint, rec.graph_fingerprint);
  EXPECT_EQ(r.options_fingerprint, rec.options_fingerprint);
  EXPECT_EQ(r.termination, rec.termination);
  EXPECT_EQ(r.status, rec.status);
  EXPECT_DOUBLE_EQ(r.elapsed_seconds, rec.elapsed_seconds);
  EXPECT_EQ(r.num_answers, rec.num_answers);
  EXPECT_DOUBLE_EQ(r.closeness, rec.closeness);
  EXPECT_DOUBLE_EQ(r.cl_star, rec.cl_star);
  EXPECT_EQ(r.satisfied, rec.satisfied);
  EXPECT_EQ(r.answer_fingerprint, rec.answer_fingerprint);
  EXPECT_EQ(r.steps, rec.steps);
  EXPECT_EQ(r.evaluations, rec.evaluations);
  EXPECT_EQ(r.memo_hits, rec.memo_hits);
  EXPECT_EQ(r.ops_generated, rec.ops_generated);
  EXPECT_EQ(r.pruned, rec.pruned);
  EXPECT_EQ(r.cache_hits, rec.cache_hits);
  EXPECT_EQ(r.cache_misses, rec.cache_misses);
  EXPECT_EQ(r.tables_built, rec.tables_built);
  EXPECT_EQ(r.store_hits, rec.store_hits);
  EXPECT_EQ(r.store_misses, rec.store_misses);
  EXPECT_EQ(r.delta_hits, rec.delta_hits);
  EXPECT_EQ(r.delta_full_fallbacks, rec.delta_full_fallbacks);
  EXPECT_EQ(r.delta_refine, rec.delta_refine);
  EXPECT_EQ(r.delta_relax, rec.delta_relax);
  EXPECT_EQ(r.delta_focus_literal, rec.delta_focus_literal);
  EXPECT_EQ(r.delta_literal_family, rec.delta_literal_family);
  ASSERT_EQ(r.ops.size(), 2u);
  EXPECT_EQ(r.ops[0].text, rec.ops[0].text);
  EXPECT_EQ(r.ops[0].kind, "relax");
  EXPECT_DOUBLE_EQ(r.ops[0].cost, 1.5);
  EXPECT_EQ(r.ops[1].text, rec.ops[1].text);
  ASSERT_EQ(r.phases.size(), 1u);
  EXPECT_EQ(r.phases[0].name, "chase.evaluate");
  EXPECT_EQ(r.phases[0].count, 90u);
  EXPECT_DOUBLE_EQ(r.phases[0].self_seconds, 0.1);
}

TEST(QueryLogRecordTest, ParseHexFingerprintRoundTripsAllWidths) {
  for (const uint64_t fp :
       {0ull, 1ull, 0xdeadbeefcafe1234ull, 0xffffffffffffffffull}) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fp));
    uint64_t parsed = 0;
    ASSERT_TRUE(obs::ParseHexFingerprint(buf, &parsed).ok());
    EXPECT_EQ(parsed, fp);
  }
  // Short (unpadded) and uppercase forms parse too.
  uint64_t parsed = 0;
  ASSERT_TRUE(obs::ParseHexFingerprint("aB3", &parsed).ok());
  EXPECT_EQ(parsed, 0xab3u);
}

TEST(QueryLogRecordTest, ParseHexFingerprintRejectsWhatStrtoullAccepts) {
  uint64_t out = 0;
  // Each of these is silently "parsed" by strtoull(..., nullptr, 16).
  EXPECT_FALSE(obs::ParseHexFingerprint("", &out).ok());
  EXPECT_FALSE(obs::ParseHexFingerprint(" 1f", &out).ok());     // whitespace
  EXPECT_FALSE(obs::ParseHexFingerprint("-1", &out).ok());      // sign wrap
  EXPECT_FALSE(obs::ParseHexFingerprint("+1", &out).ok());
  EXPECT_FALSE(obs::ParseHexFingerprint("0x1f", &out).ok());    // prefix
  EXPECT_FALSE(obs::ParseHexFingerprint("1fg", &out).ok());     // junk tail
  EXPECT_FALSE(obs::ParseHexFingerprint("12345678901234567", &out).ok());
  EXPECT_FALSE(obs::ParseHexFingerprint("ffffffffffffffffff", &out).ok());
}

TEST(QueryLogRecordTest, FromJsonRejectsMalformedFingerprint) {
  const obs::QueryLogRecord rec = SampleRecord(1);
  std::string json = rec.ToJson();
  const std::string good = "\"graph_fingerprint\":\"deadbeefcafe0001\"";
  const size_t pos = json.find(good);
  ASSERT_NE(pos, std::string::npos) << json;
  json.replace(pos, good.size(), "\"graph_fingerprint\":\"0xdeadbeef\"");
  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto back = obs::QueryLogRecord::FromJson(parsed.value());
  EXPECT_FALSE(back.ok());
}

TEST(QueryLogRecordTest, FromJsonToleratesAbsentFingerprints) {
  auto parsed = obs::ParseJson("{\"algorithm\":\"AnsW\"}");
  ASSERT_TRUE(parsed.ok());
  auto back = obs::QueryLogRecord::FromJson(parsed.value());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().graph_fingerprint, 0u);
  EXPECT_EQ(back.value().options_fingerprint, 0u);
}

// Lines written before the reuse tally was retired carry "delta_reuse_hits";
// they still parse, with every other field intact.
TEST(QueryLogRecordTest, FromJsonAcceptsRetiredReuseTally) {
  const obs::QueryLogRecord rec = SampleRecord(2);
  std::string json = rec.ToJson();
  const std::string anchor = ",\"cache_hits\":";
  const size_t pos = json.find(anchor);
  ASSERT_NE(pos, std::string::npos) << json;
  json.insert(pos, ",\"delta_reuse_hits\":7");
  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto back = obs::QueryLogRecord::FromJson(parsed.value());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().ToJson(), rec.ToJson());
  EXPECT_EQ(rec.ToJson().find("reuse"), std::string::npos);
}

TEST(QueryLogTest, AppendAndLoad) {
  const std::string path = TempPath("append");
  std::remove(path.c_str());
  {
    auto log = obs::QueryLog::Open(path);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(log.value()->Append(SampleRecord(i)));
    }
    EXPECT_EQ(log.value()->records_written(), 3u);
  }
  auto loaded = obs::QueryLog::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().skipped_lines, 0u);
  ASSERT_EQ(loaded.value().records.size(), 3u);
  EXPECT_EQ(loaded.value().records[2].steps, 102u);
  std::remove(path.c_str());
}

TEST(QueryLogTest, OpenAppendsToExistingLog) {
  const std::string path = TempPath("reopen");
  std::remove(path.c_str());
  {
    auto log = obs::QueryLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log.value()->Append(SampleRecord(0)));
  }
  {
    auto log = obs::QueryLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log.value()->Append(SampleRecord(1)));
  }
  auto loaded = obs::QueryLog::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().records.size(), 2u);
  std::remove(path.c_str());
}

TEST(QueryLogTest, ConcurrentAppendsProduceWholeLines) {
  const std::string path = TempPath("concurrent");
  std::remove(path.c_str());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  {
    auto log = obs::QueryLog::Open(path);
    ASSERT_TRUE(log.ok());
    obs::QueryLog* sink = log.value().get();
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([sink, t] {
        for (int i = 0; i < kPerThread; ++i) {
          ASSERT_TRUE(sink->Append(SampleRecord(t * kPerThread + i)));
        }
      });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(sink->records_written(),
              static_cast<uint64_t>(kThreads * kPerThread));
  }
  auto loaded = obs::QueryLog::Load(path);
  ASSERT_TRUE(loaded.ok());
  // Every line parses — interleaved writers never tear a record.
  EXPECT_EQ(loaded.value().skipped_lines, 0u);
  EXPECT_EQ(loaded.value().records.size(),
            static_cast<size_t>(kThreads * kPerThread));
  std::remove(path.c_str());
}

TEST(QueryLogTest, LoadToleratesTornFinalLine) {
  const std::string path = TempPath("torn");
  std::remove(path.c_str());
  {
    auto log = obs::QueryLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log.value()->Append(SampleRecord(0)));
    ASSERT_TRUE(log.value()->Append(SampleRecord(1)));
  }
  // Simulate a crash mid-write: append half a record with no newline.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const std::string partial = SampleRecord(2).ToJson().substr(0, 40);
    std::fwrite(partial.data(), 1, partial.size(), f);
    std::fclose(f);
  }
  auto loaded = obs::QueryLog::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().records.size(), 2u);
  EXPECT_EQ(loaded.value().skipped_lines, 1u);
  std::remove(path.c_str());
}

TEST(QueryLogTest, LoadOfMissingFileIsNotFound) {
  auto loaded = obs::QueryLog::Load(TempPath("missing_never_created"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kNotFound);
}

// ---- end-to-end: solving appends, and explain output is deterministic ----

TEST(QueryLogSolveTest, SolveWithContextAppendsOneRecordPerSolve) {
  const std::string path = TempPath("solve");
  std::remove(path.c_str());
  ProductDemo demo;
  auto log = obs::QueryLog::Open(path);
  ASSERT_TRUE(log.ok());

  ChaseOptions opts;
  opts.query_log = log.value().get();
  WhyQuestion w{demo.Query(), demo.MakeExemplar()};
  {
    ChaseContext ctx(demo.graph(), w, opts);
    ChaseResult result = ExecuteWithContext(ctx, Algorithm::kAnsW).result;
    ASSERT_TRUE(result.found());
  }
  {
    ChaseContext ctx(demo.graph(), w, opts);
    (void)ExecuteWithContext(ctx, Algorithm::kAnsHeu);
  }
  EXPECT_EQ(log.value()->records_written(), 2u);

  auto loaded = obs::QueryLog::Load(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().records.size(), 2u);
  const obs::QueryLogRecord& first = loaded.value().records[0];
  EXPECT_EQ(first.algorithm, "AnsW");
  EXPECT_EQ(first.question_kind, "why");
  EXPECT_NE(first.graph_fingerprint, 0u);
  EXPECT_NE(first.options_fingerprint, 0u);
  EXPECT_EQ(first.termination, "exhausted");
  EXPECT_GT(first.steps, 0u);
  EXPECT_GT(first.evaluations, 0u);
  EXPECT_FALSE(first.ops.empty());
  EXPECT_FALSE(first.phases.empty());
  // Both solves saw the same graph and options.
  EXPECT_EQ(first.graph_fingerprint,
            loaded.value().records[1].graph_fingerprint);
  EXPECT_EQ(first.options_fingerprint,
            loaded.value().records[1].options_fingerprint);
  std::remove(path.c_str());
}

/// The logged line is the solve's record: the response's report, and a
/// rebuild from the context and the result after a lineage replay has run
/// more evaluations on the context, are the same bytes.
TEST(QueryLogSolveTest, LoggedLineIsTheSolvesRecord) {
  const std::string path = TempPath("record");
  std::remove(path.c_str());
  ProductDemo demo;
  auto log = obs::QueryLog::Open(path);
  ASSERT_TRUE(log.ok());

  ChaseOptions opts;
  opts.query_log = log.value().get();
  WhyQuestion w{demo.Query(), demo.MakeExemplar()};
  ChaseContext ctx(demo.graph(), w, opts);
  const Response resp =
      ExecuteWithContext(ctx, Algorithm::kAnsW, /*collect_report=*/true);
  ASSERT_TRUE(resp.found());
  ASSERT_FALSE(resp.best().ops.empty());
  // The replay evaluates every prefix of the best answer's derivation.
  const uint64_t lookups = ctx.stats().evaluations + ctx.stats().memo_hits;
  (void)BuildDifferentialTable(ctx, resp.best().ops);
  ASSERT_GT(ctx.stats().evaluations + ctx.stats().memo_hits, lookups);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string logged;
  char buf[4096];
  for (size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    logged.append(buf, n);
  }
  std::fclose(f);
  ASSERT_EQ(log.value()->records_written(), 1u);

  const obs::QueryLogRecord rebuilt =
      ChaseReport::BuildQueryLogRecord(ctx, resp.result, Algorithm::kAnsW);
  EXPECT_EQ(rebuilt.ToJson() + "\n", logged);
  EXPECT_EQ(resp.report.ToJson() + "\n", logged);
  // The root evaluation is counted on both sides of the view tally.
  EXPECT_EQ(rebuilt.evaluations, resp.result.stats.evaluations);
  EXPECT_EQ(rebuilt.cache_misses, rebuilt.tables_built);
  EXPECT_GT(rebuilt.tables_built, 0u);
  std::remove(path.c_str());
}

/// Golden check on the structural (time-independent) explain content for the
/// fixed ProductDemo instance: the applied operator sequence, kinds, and
/// counters are deterministic; wall-clock fields are not and stay unpinned.
TEST(QueryLogSolveTest, ExplainGoldenStructureForProductDemo) {
  ProductDemo demo;
  ChaseOptions opts;  // defaults: budget 3, the §7 setup
  WhyQuestion w{demo.Query(), demo.MakeExemplar()};
  ChaseContext ctx(demo.graph(), w, opts);
  ChaseResult result = ExecuteWithContext(ctx, Algorithm::kAnsW).result;
  ASSERT_TRUE(result.found());

  const obs::QueryLogRecord rec =
      ChaseReport::BuildQueryLogRecord(ctx, result, Algorithm::kAnsW);
  auto parsed = obs::ParseJson(rec.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& v = parsed.value();
  EXPECT_EQ(v.StringOr("algorithm", ""), "AnsW");
  EXPECT_EQ(v.StringOr("question_kind", ""), "why");
  EXPECT_EQ(v.StringOr("termination", ""), "exhausted");
  EXPECT_EQ(v.StringOr("status", ""), "OK");
  EXPECT_TRUE(v.BoolOr("satisfied", false));
  EXPECT_NEAR(v.NumberOr("closeness", 0), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(v.NumberOr("cl_star", 0), 0.5, 1e-9);

  const obs::JsonValue* ops = v.Find("ops");
  ASSERT_NE(ops, nullptr);
  ASSERT_EQ(ops->items.size(), 2u);
  EXPECT_EQ(ops->items[0].StringOr("kind", ""), "relax");
  EXPECT_EQ(ops->items[0].StringOr("op", ""),
            "RxL(u0.price >= 840 -> price >= 795)");
  EXPECT_EQ(ops->items[1].StringOr("kind", ""), "refine");
  EXPECT_EQ(ops->items[1].StringOr("op", ""), "AddL(u2.name = Sprint)");

  const obs::JsonValue* phases = v.Find("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_FALSE(phases->items.empty());

  // The human-readable rendering carries the same facts.
  const std::string text = ChaseReport::ExplainText(rec);
  EXPECT_NE(text.find("Explain (AnsW, why)"), std::string::npos) << text;
  EXPECT_NE(text.find("RxL(u0.price >= 840 -> price >= 795)"),
            std::string::npos);
  EXPECT_NE(text.find("AddL(u2.name = Sprint)"), std::string::npos);
  EXPECT_NE(text.find("phases (self time):"), std::string::npos);
}

}  // namespace
}  // namespace wqe
