#include "chase/report.h"

#include <gtest/gtest.h>

#include "gen/product_demo.h"
#include "obs/json.h"

namespace wqe {
namespace {

TEST(ReportTest, EscapeHandlesSpecials) {
  EXPECT_EQ(ChaseReport::Escape("a\"b"), "a\\\"b");
  EXPECT_EQ(ChaseReport::Escape("a\\b"), "a\\\\b");
  EXPECT_EQ(ChaseReport::Escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(ChaseReport::Escape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(ChaseReport::Escape("plain"), "plain");
}

TEST(ReportTest, QuestionFingerprintSeparatesExemplarsOfEqualSize) {
  // Two tuples and one constraint each: every variant below has the same
  // tuple and constraint counts as the base, so only content can tell them
  // apart.
  ProductDemo demo;
  const Schema& schema = demo.graph().schema();
  const AttrId price = schema.LookupAttr("price");
  const AttrId ram = schema.LookupAttr("ram");
  const auto make = [&](double first_price, AttrId second_attr, CmpOp op,
                        double bound) {
    WhyQuestion w = demo.Question();
    Exemplar e;
    TuplePattern t0;
    t0.SetConstant(price, Value::Num(first_price));
    TuplePattern t1;
    t1.SetWildcard(second_attr);
    e.AddTuple(t0);
    e.AddTuple(t1);
    e.AddConstraint(ConstraintLiteral::VarConst({1, second_attr}, op,
                                                Value::Num(bound)));
    w.exemplar = e;
    return w;
  };
  const WhyQuestion base = make(840, ram, CmpOp::kGe, 4);
  const uint64_t fp = ChaseReport::QuestionFingerprint(base);
  EXPECT_EQ(fp, ChaseReport::QuestionFingerprint(make(840, ram, CmpOp::kGe, 4)));
  const WhyQuestion variants[] = {
      make(841, ram, CmpOp::kGe, 4),    // a tuple cell's constant
      make(840, price, CmpOp::kGe, 4),  // a tuple cell's attribute
      make(840, ram, CmpOp::kLe, 4),    // a constraint's operator
      make(840, ram, CmpOp::kGe, 8),    // a constraint's constant
  };
  for (const WhyQuestion& w : variants) {
    ASSERT_EQ(w.exemplar.tuples().size(), base.exemplar.tuples().size());
    ASSERT_EQ(w.exemplar.constraints().size(),
              base.exemplar.constraints().size());
    EXPECT_NE(ChaseReport::QuestionFingerprint(w), fp)
        << w.exemplar.ToString(schema);
  }
}

class ReportFixture : public ::testing::Test {
 protected:
  ReportFixture() {
    opts_.budget = 4;
    ctx_ = std::make_unique<ChaseContext>(demo_.graph(), demo_.Question(), opts_);
    result_ = ExecuteWithContext(*ctx_, Algorithm::kAnsW).result;
  }

  ProductDemo demo_;
  ChaseOptions opts_;
  std::unique_ptr<ChaseContext> ctx_;
  ChaseResult result_;
};

TEST_F(ReportFixture, ContainsKeyFigures) {
  const std::string json = ChaseReport::ToJson(*ctx_, result_);
  EXPECT_NE(json.find("\"cl_star\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"rep_size\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"candidates\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"satisfies_exemplar\": true"), std::string::npos);
}

TEST_F(ReportFixture, ToJsonParsesStrictly) {
  // The report (with lineage) must be a valid JSON document end to end —
  // embedded metric names, operator strings, and doubles included.
  for (bool lineage : {false, true}) {
    const std::string json = ChaseReport::ToJson(*ctx_, result_, lineage);
    auto parsed = obs::ParseJson(json);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_NE(parsed.value().Find("answers"), nullptr);
    EXPECT_NE(parsed.value().Find("metrics"), nullptr);
  }
}

TEST_F(ReportFixture, ExplainJsonMatchesExplainTextFacts) {
  const std::string json =
      ChaseReport::ExplainJson(*ctx_, result_, Algorithm::kAnsW);
  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string text =
      ChaseReport::ExplainText(*ctx_, result_, Algorithm::kAnsW);
  // Every operator in the JSON record appears verbatim in the text render.
  const obs::JsonValue* ops = parsed.value().Find("ops");
  ASSERT_NE(ops, nullptr);
  for (const obs::JsonValue& op : ops->items) {
    EXPECT_NE(text.find(op.StringOr("op", "<missing>")), std::string::npos)
        << text;
  }
}

TEST_F(ReportFixture, ListsAnswerMatchesByName) {
  const std::string json = ChaseReport::ToJson(*ctx_, result_);
  EXPECT_NE(json.find("P3 S9+"), std::string::npos);
  EXPECT_NE(json.find("P4 Note8"), std::string::npos);
  EXPECT_NE(json.find("P5 S8+"), std::string::npos);
}

TEST_F(ReportFixture, LineageOptIn) {
  const std::string without = ChaseReport::ToJson(*ctx_, result_, false);
  EXPECT_EQ(without.find("\"lineage\""), std::string::npos);
  const std::string with = ChaseReport::ToJson(*ctx_, result_, true);
  EXPECT_NE(with.find("\"lineage\""), std::string::npos);
  EXPECT_NE(with.find("\"relevance\":\"RM\""), std::string::npos);
}

TEST_F(ReportFixture, BalancedBracesAndQuotes) {
  const std::string json = ChaseReport::ToJson(*ctx_, result_, true);
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST_F(ReportFixture, EmitsTerminationAndStatus) {
  const std::string json = ChaseReport::ToJson(*ctx_, result_);
  EXPECT_NE(json.find("\"termination\": \"optimal\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"OK\""), std::string::npos);
  EXPECT_NE(json.find("\"memo_hits\""), std::string::npos);
}

TEST_F(ReportFixture, EmitsPhasesAndMetrics) {
  const std::string json = ChaseReport::ToJson(*ctx_, result_);
  EXPECT_NE(json.find("\"phases\": ["), std::string::npos);
  EXPECT_NE(json.find("\"metrics\": {"), std::string::npos);
  // The context's private registry carries the evaluation counters.
  EXPECT_NE(json.find("\"chase.evaluations\""), std::string::npos);
  EXPECT_NE(json.find("\"chase.evaluate_ns\""), std::string::npos);
}

}  // namespace
}  // namespace wqe
