// Seeded hostile-input test for the query and exemplar text formats, which
// read external bytes (question files, query-log replay). Starting from the
// ToText rendering of real questions, byte flips, truncations, blanked
// lines, token duplications and extreme-number substitutions must each
// either be refused with a Status or parse into a value whose ToText parses
// back to the same value. Nothing may throw or fault; the sanitizer builds
// run this like every other test.

#include <gtest/gtest.h>

#include <cctype>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/text_parse.h"
#include "exemplar/exemplar_text.h"
#include "gen/datasets.h"
#include "gen/product_demo.h"
#include "gen/synthetic.h"
#include "obs/query_log.h"
#include "query/query_text.h"
#include "serve/replay.h"
#include "workload/why_factory.h"

namespace wqe {
namespace {

constexpr int kMutationsPerSeed = 60;

// Replacements for a numeric token: signs, overflow for u32 and double,
// non-finite and non-decimal spellings, and trailing garbage.
const char* const kExtremeNumbers[] = {
    "-1",   "-0",   "4294967295", "4294967296", "99999999999999999999999",
    "1e309", "-1e309", "inf",     "nan",        "0x10",
    "+5",   "5abc", "1e-400",     "",           "1.5",
};

/// The ToText renderings the mutations start from: the product demo's
/// question and a few generated benchmark questions.
struct Seeds {
  std::vector<std::string> queries;
  std::vector<std::string> exemplars;
};

Seeds MakeSeeds(const Graph& demo_graph, const WhyQuestion& demo_question,
                const Graph& bench_graph,
                const std::vector<BenchCase>& cases) {
  Seeds s;
  s.queries.push_back(
      QueryText::ToText(demo_question.query, demo_graph.schema()));
  s.exemplars.push_back(
      ExemplarText::ToText(demo_question.exemplar, demo_graph.schema()));
  for (const BenchCase& c : cases) {
    s.queries.push_back(
        QueryText::ToText(c.question.query, bench_graph.schema()));
    s.exemplars.push_back(
        ExemplarText::ToText(c.question.exemplar, bench_graph.schema()));
  }
  return s;
}

/// One mutation of `text` drawn from `rng`.
std::string Mutate(const std::string& text, std::mt19937_64& rng) {
  auto pick = [&](size_t lo, size_t hi) {  // uniform in [lo, hi)
    return std::uniform_int_distribution<size_t>(lo, hi - 1)(rng);
  };
  std::string out = text;
  switch (pick(0, 5)) {
    case 0: {  // byte flip
      const size_t at = pick(0, out.size());
      out[at] = static_cast<char>(out[at] ^ pick(1, 256));
      break;
    }
    case 1:  // truncation
      out.resize(pick(0, out.size()));
      break;
    case 2: {  // one line blanked to spaces and tabs
      const size_t nl = out.rfind('\n', pick(0, out.size()));
      for (size_t i = nl == std::string::npos ? 0 : nl + 1;
           i < out.size() && out[i] != '\n'; ++i) {
        out[i] = pick(0, 2) == 0 ? ' ' : '\t';
      }
      break;
    }
    default: {  // token duplication or extreme-number substitution
      std::vector<std::pair<size_t, size_t>> tokens;  // [begin, end)
      for (size_t i = 0; i < out.size();) {
        if (out[i] == ' ' || out[i] == '\n') {
          ++i;
          continue;
        }
        const size_t begin = i;
        while (i < out.size() && out[i] != ' ' && out[i] != '\n') ++i;
        tokens.emplace_back(begin, i);
      }
      const auto [begin, end] = tokens[pick(0, tokens.size())];
      if (pick(0, 2) == 0) {
        out.insert(end, " " + out.substr(begin, end - begin));
        break;
      }
      // Replace the token's first digit run (a node id, a bound, the "840"
      // of "price=840", the "0" of "t0.price"), or the whole token if it
      // has none.
      auto digit = [&](size_t i) {
        return std::isdigit(static_cast<unsigned char>(out[i])) != 0;
      };
      size_t from = begin;
      while (from < end && !digit(from)) ++from;
      size_t to = from;
      while (to < end && digit(to)) ++to;
      if (from == end) std::tie(from, to) = std::make_pair(begin, end);
      out.replace(from, to - from,
                  kExtremeNumbers[pick(0, std::size(kExtremeNumbers))]);
      break;
    }
  }
  return out;
}

class TextMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bench_graph_ = GenerateGraph(ImdbLike(0.02));
    WhyFactoryOptions fopts;
    fopts.query.num_edges = 2;
    fopts.disturb.num_ops = 2;
    fopts.seed = 7;
    cases_ = MakeBenchCases(bench_graph_, 3, fopts);
    ASSERT_FALSE(cases_.empty());
    seeds_ = MakeSeeds(demo_.graph(), demo_.Question(), bench_graph_, cases_);
  }

  ProductDemo demo_;
  Graph bench_graph_;
  std::vector<BenchCase> cases_;
  Seeds seeds_;
};

TEST_F(TextMutationTest, QueryMutationsAreRefusedOrRoundTrip) {
  std::mt19937_64 rng(20190630);
  Schema schema = bench_graph_.schema();
  int refused = 0, parsed = 0;
  for (const std::string& seed : seeds_.queries) {
    ASSERT_TRUE(QueryText::Parse(seed, &schema).ok()) << seed;
    for (int i = 0; i < kMutationsPerSeed; ++i) {
      const std::string text = Mutate(seed, rng);
      Result<PatternQuery> q = QueryText::Parse(text, &schema);
      if (!q.ok()) {
        EXPECT_EQ(q.status().code(), Status::Code::kInvalidArgument);
        ++refused;
        continue;
      }
      ++parsed;
      const std::string rendered = QueryText::ToText(q.value(), schema);
      Result<PatternQuery> again = QueryText::Parse(rendered, &schema);
      ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << text;
      EXPECT_EQ(QueryText::ToText(again.value(), schema), rendered) << text;
      EXPECT_EQ(again.value().Fingerprint(), q.value().Fingerprint()) << text;
    }
  }
  // Both outcomes must actually be exercised.
  EXPECT_GT(refused, 0);
  EXPECT_GT(parsed, 0);
}

TEST_F(TextMutationTest, ExemplarMutationsAreRefusedOrRoundTrip) {
  std::mt19937_64 rng(20190701);
  Schema schema = bench_graph_.schema();
  int refused = 0, parsed = 0;
  for (const std::string& seed : seeds_.exemplars) {
    ASSERT_TRUE(ExemplarText::Parse(seed, &schema).ok()) << seed;
    for (int i = 0; i < kMutationsPerSeed; ++i) {
      const std::string text = Mutate(seed, rng);
      Result<Exemplar> e = ExemplarText::Parse(text, &schema);
      if (!e.ok()) {
        EXPECT_EQ(e.status().code(), Status::Code::kInvalidArgument);
        ++refused;
        continue;
      }
      ++parsed;
      const std::string rendered = ExemplarText::ToText(e.value(), schema);
      Result<Exemplar> again = ExemplarText::Parse(rendered, &schema);
      ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << text;
      EXPECT_EQ(ExemplarText::ToText(again.value(), schema), rendered) << text;
    }
  }
  EXPECT_GT(refused, 0);
  EXPECT_GT(parsed, 0);
}

// The named hostile inputs: each crashed or aborted the process, or wrapped
// silently, before the parsers validated their numbers.

Status ParseQuery(const std::string& text) {
  Schema schema;
  return QueryText::Parse(text, &schema).status();
}

Status ParseExemplar(const std::string& text) {
  Schema schema;
  return ExemplarText::Parse(text, &schema).status();
}

TEST(TextParseHostileTest, WhitespaceOnlyLineIsSkippedNotACrash) {
  EXPECT_EQ(ParseQuery("wqe-query v1\n   \n").code(),
            Status::Code::kInvalidArgument);  // no nodes, so no focus
  EXPECT_EQ(ParseExemplar("wqe-exemplar v1\n \t \n").code(),
            Status::Code::kInvalidArgument);  // no tuple patterns
  EXPECT_TRUE(ParseQuery("wqe-query v1\n  \nfocus 0\n\t\nnode 0 A\n").ok());
  EXPECT_TRUE(ParseExemplar("wqe-exemplar v1\n  \ntuple a=1\n").ok());
}

TEST(TextParseHostileTest, NonNumericFocusIsInvalid) {
  EXPECT_EQ(ParseQuery("wqe-query v1\nfocus x\nnode 0 A\n").code(),
            Status::Code::kInvalidArgument);
}

TEST(TextParseHostileTest, NonNumericLiteralConstantIsInvalid) {
  EXPECT_EQ(
      ParseQuery("wqe-query v1\nfocus 0\nnode 0 A\nlit 0 age > num abc\n")
          .code(),
      Status::Code::kInvalidArgument);
}

TEST(TextParseHostileTest, OverflowingTupleIndexIsInvalid) {
  EXPECT_EQ(ParseExemplar("wqe-exemplar v1\ntuple a=1\n"
                          "where t99999999999999999999999.a = t0.a\n")
                .code(),
            Status::Code::kInvalidArgument);
}

TEST(TextParseHostileTest, NegativeEdgeBoundIsInvalid) {
  EXPECT_EQ(ParseQuery("wqe-query v1\nfocus 0\nnode 0 A\nnode 1 B\n"
                       "edge 0 1 -1\n")
                .code(),
            Status::Code::kInvalidArgument);
}

TEST(TextParseHostileTest, NumberHelpersRejectPartialAndNonFiniteTokens) {
  uint32_t u = 0;
  EXPECT_TRUE(ParseU32("4294967295", &u));
  EXPECT_EQ(u, 4294967295u);
  for (const char* bad : {"", "-1", "+1", "4294967296", "1x", " 1", "0x1"}) {
    EXPECT_FALSE(ParseU32(bad, &u)) << bad;
  }
  double d = 0;
  EXPECT_TRUE(ParseDouble("-2.5e3", &d));
  EXPECT_EQ(d, -2500.0);
  for (const char* bad : {"", "abc", "1e309", "inf", "nan", "1.5x", "1,5"}) {
    EXPECT_FALSE(ParseDouble(bad, &d)) << bad;
  }
}

TEST_F(TextMutationTest, ReplaySkipsRecordsThatDoNotParse) {
  obs::QueryLogRecord good;
  good.algorithm = "AnsW";
  good.query_text = seeds_.queries[1];
  good.exemplar_text = seeds_.exemplars[1];
  std::vector<obs::QueryLogRecord> records(4, good);
  records[1].query_text = "wqe-query v1\n   \n";
  records[2].query_text = "wqe-query v1\nfocus x\nnode 0 A\n";
  records[3].exemplar_text =
      "wqe-exemplar v1\ntuple a=1\nwhere t99999999999999999999999.a = t0.a\n";
  const serve::ReplayBatch batch =
      serve::BatchFromLog(bench_graph_, records, {});
  EXPECT_EQ(batch.requests.size(), 1u);
  EXPECT_EQ(batch.skipped, 3u);
}

}  // namespace
}  // namespace wqe
