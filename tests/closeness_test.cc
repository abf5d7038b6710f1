#include "exemplar/closeness.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "exemplar/similarity.h"
#include "gen/product_demo.h"

namespace wqe {
namespace {

class ClosenessFixture : public ::testing::Test {
 protected:
  ClosenessFixture()
      : adom_(demo_.graph()), eval_(demo_.graph(), adom_) {}

  ProductDemo demo_;
  ActiveDomains adom_;
  ClosenessEvaluator eval_;
};

TEST_F(ClosenessFixture, WildcardAndVariableCellsScoreOne) {
  // t1 = <display 6.2, storage _, price _>: P3 matches display exactly.
  const Exemplar e = demo_.MakeExemplar();
  const TuplePattern& t1 = e.tuples()[0];
  EXPECT_DOUBLE_EQ(eval_.ClNodeTuple(demo_.p(3), t1), 1.0);
  EXPECT_DOUBLE_EQ(eval_.ClNodeTuple(demo_.p(1), t1), 1.0);
}

TEST_F(ClosenessFixture, ConstantMismatchLowersScore) {
  const Exemplar e = demo_.MakeExemplar();
  const TuplePattern& t1 = e.tuples()[0];  // display 6.2
  // P2 has display 6.3: similarity = 1 - 0.1/range(display).
  const double range = adom_.Range(demo_.graph().schema().LookupAttr("display"));
  const double expected = (NumSimilarity(6.3, 6.2, range) + 1.0 + 1.0) / 3.0;
  EXPECT_NEAR(eval_.ClNodeTuple(demo_.p(2), t1), expected, 1e-12);
  EXPECT_LT(eval_.ClNodeTuple(demo_.p(2), t1), 1.0);
}

TEST_F(ClosenessFixture, MissingAttributeScoresZeroForThatCell) {
  TuplePattern t;
  t.SetConstant(/*attr=*/9999, Value::Num(1));  // attribute no node carries
  EXPECT_DOUBLE_EQ(eval_.ClNodeTuple(demo_.p(1), t), 0.0);
}

TEST_F(ClosenessFixture, EmptyTupleScoresOne) {
  TuplePattern t;
  EXPECT_DOUBLE_EQ(eval_.ClNodeTuple(demo_.p(1), t), 1.0);
}

TEST_F(ClosenessFixture, VsimThresholdGates) {
  const Exemplar e = demo_.MakeExemplar();
  EXPECT_TRUE(eval_.Vsim(demo_.p(3), e.tuples()[0]));
  EXPECT_FALSE(eval_.Vsim(demo_.p(2), e.tuples()[0]));  // display differs

  ClosenessConfig loose;
  loose.theta = 0.9;
  ClosenessEvaluator relaxed(demo_.graph(), adom_, loose);
  EXPECT_TRUE(relaxed.Vsim(demo_.p(2), e.tuples()[0]));
}

TEST_F(ClosenessFixture, ClNodeExemplarTakesBestMatchingTuple) {
  const Exemplar e = demo_.MakeExemplar();
  EXPECT_DOUBLE_EQ(eval_.ClNodeExemplar(demo_.p(3), e), 1.0);  // matches t1
  EXPECT_DOUBLE_EQ(eval_.ClNodeExemplar(demo_.p(4), e), 1.0);  // matches t2
  // P6 (display 5.8) matches neither tuple at θ = 1.
  EXPECT_DOUBLE_EQ(eval_.ClNodeExemplar(demo_.p(6), e), 0.0);
}

// cl(v, t) as §3 defines it, cell by cell through ValueSimilarity: the
// reference both ClNodeTuple and the bound-first Vsim are held to.
double ReferenceClNodeTuple(const Graph& g, const ActiveDomains& adom,
                            NodeId v, const TuplePattern& t) {
  if (t.num_cells() == 0) return 1.0;
  double total = 0;
  for (const PatternCell& cell : t.cells()) {
    if (!cell.is_constant()) {
      total += 1.0;
      continue;
    }
    const Value* val = g.attr(v, cell.attr);
    if (val == nullptr) continue;
    total += ValueSimilarity(*val, cell.constant, adom.Range(cell.attr),
                             g.schema().strings());
  }
  return total / static_cast<double>(t.num_cells());
}

TEST(VsimBoundTest, VsimEqualsClosenessAtLeastThetaForEveryTheta) {
  // Strings of equal length that differ, prefixes, the empty string, one
  // long outlier; numeric cells; and nodes missing either attribute.
  const std::vector<std::string> words = {"",     "a",    "b",    "ab",
                                          "ba",   "abc",  "abd",  "xbc",
                                          "abcd", "abce", "zzzzzzzzzzzz"};
  Graph g;
  Rng rng(42);
  for (size_t i = 0; i < 60; ++i) {
    const NodeId v = g.AddNode("N");
    if (i % 7 != 0) g.SetStr(v, "s", words[rng.Index(words.size())]);
    if (i % 5 != 0) g.SetNum(v, "x", static_cast<double>(rng.Int(0, 10)));
    if (rng.Chance(0.5)) g.SetStr(v, "t", words[rng.Index(words.size())]);
  }
  g.Finalize();
  const ActiveDomains adom(g);
  const Schema& schema = g.schema();
  const AttrId s_attr = schema.LookupAttr("s");
  const AttrId t_attr = schema.LookupAttr("t");
  const AttrId x_attr = schema.LookupAttr("x");
  auto word = [&](const std::string& w) {
    return Value::Str(schema.strings().Lookup(w));
  };

  std::vector<TuplePattern> tuples;
  for (int i = 0; i < 40; ++i) {
    TuplePattern t;
    t.SetConstant(s_attr, word(words[rng.Index(words.size())]));
    if (rng.Chance(0.6)) {
      t.SetConstant(t_attr, word(words[rng.Index(words.size())]));
    }
    if (rng.Chance(0.5)) {
      t.SetConstant(x_attr, Value::Num(static_cast<double>(rng.Int(0, 10))));
    } else if (rng.Chance(0.5)) {
      t.SetWildcard(x_attr);
    }
    tuples.push_back(std::move(t));
  }
  tuples.emplace_back();  // the empty tuple pattern

  for (double theta : {1.0, 0.9, 0.75, 0.5, 0.0}) {
    ClosenessConfig config;
    config.theta = theta;
    const ClosenessEvaluator eval(g, adom, config);
    for (size_t i = 0; i < tuples.size(); ++i) {
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const double cl = eval.ClNodeTuple(v, tuples[i]);
        EXPECT_EQ(cl, ReferenceClNodeTuple(g, adom, v, tuples[i]))
            << "v=" << v << " tuple=" << i;
        EXPECT_EQ(eval.Vsim(v, tuples[i]), cl >= theta)
            << "theta=" << theta << " v=" << v << " tuple=" << i
            << " cl=" << cl;
      }
    }
  }
}

}  // namespace
}  // namespace wqe
