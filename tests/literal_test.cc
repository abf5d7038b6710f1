#include "query/literal.h"

#include <gtest/gtest.h>

namespace wqe {
namespace {

TEST(EvalCmpTest, NumericComparisons) {
  EXPECT_TRUE(EvalCmp(Value::Num(1), CmpOp::kLt, Value::Num(2)));
  EXPECT_FALSE(EvalCmp(Value::Num(2), CmpOp::kLt, Value::Num(2)));
  EXPECT_TRUE(EvalCmp(Value::Num(2), CmpOp::kLe, Value::Num(2)));
  EXPECT_TRUE(EvalCmp(Value::Num(2), CmpOp::kEq, Value::Num(2)));
  EXPECT_TRUE(EvalCmp(Value::Num(2), CmpOp::kGe, Value::Num(2)));
  EXPECT_FALSE(EvalCmp(Value::Num(2), CmpOp::kGt, Value::Num(2)));
  EXPECT_TRUE(EvalCmp(Value::Num(3), CmpOp::kGt, Value::Num(2)));
}

TEST(EvalCmpTest, CategoricalOnlyEquality) {
  EXPECT_TRUE(EvalCmp(Value::Str(5), CmpOp::kEq, Value::Str(5)));
  EXPECT_FALSE(EvalCmp(Value::Str(5), CmpOp::kEq, Value::Str(6)));
  // Ordered operators on categorical values are false (incomparable).
  EXPECT_FALSE(EvalCmp(Value::Str(5), CmpOp::kLt, Value::Str(6)));
  EXPECT_FALSE(EvalCmp(Value::Str(6), CmpOp::kGt, Value::Str(5)));
}

TEST(EvalCmpTest, MixedKindsAreFalse) {
  EXPECT_FALSE(EvalCmp(Value::Num(5), CmpOp::kEq, Value::Str(5)));
  EXPECT_FALSE(EvalCmp(Value::Null(), CmpOp::kEq, Value::Null()));
}

TEST(LiteralTest, MatchesRequiresAttribute) {
  Graph g;
  NodeId a = g.AddNode("A");
  g.SetNum(a, "price", 840);
  g.Finalize();
  const AttrId price = g.schema().LookupAttr("price");
  const AttrId missing = g.schema().InternAttr("missing");

  Literal ge{price, CmpOp::kGe, Value::Num(800)};
  EXPECT_TRUE(ge.Matches(g, a));
  Literal gt{price, CmpOp::kGt, Value::Num(840)};
  EXPECT_FALSE(gt.Matches(g, a));
  Literal on_missing{missing, CmpOp::kGe, Value::Num(0)};
  EXPECT_FALSE(on_missing.Matches(g, a));
}

TEST(LiteralTest, WildcardMatchesAnyValue) {
  Graph g;
  NodeId a = g.AddNode("A");
  g.SetNum(a, "x", 1);
  NodeId b = g.AddNode("A");
  g.Finalize();
  const AttrId x = g.schema().LookupAttr("x");
  Literal any{x, CmpOp::kEq, Value::Null()};
  EXPECT_TRUE(any.is_wildcard());
  EXPECT_TRUE(any.Matches(g, a));
  EXPECT_FALSE(any.Matches(g, b));  // b lacks the attribute entirely
}

TEST(LiteralTest, EqualityOperator) {
  Literal a{1, CmpOp::kGe, Value::Num(5)};
  Literal b{1, CmpOp::kGe, Value::Num(5)};
  Literal c{1, CmpOp::kGt, Value::Num(5)};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(LiteralTest, ToStringFormats) {
  Schema schema;
  const AttrId price = schema.InternAttr("price");
  Literal l{price, CmpOp::kGe, Value::Num(840)};
  EXPECT_EQ(l.ToString(schema), "price >= 840");
  Literal w{price, CmpOp::kEq, Value::Null()};
  EXPECT_EQ(w.ToString(schema), "price exists");
}

TEST(CmpOpTest, Names) {
  EXPECT_STREQ(CmpOpName(CmpOp::kLt), "<");
  EXPECT_STREQ(CmpOpName(CmpOp::kLe), "<=");
  EXPECT_STREQ(CmpOpName(CmpOp::kEq), "=");
  EXPECT_STREQ(CmpOpName(CmpOp::kGe), ">=");
  EXPECT_STREQ(CmpOpName(CmpOp::kGt), ">");
}

TEST(LiteralKeyTest, NumbersRenderExactlyAndShortest) {
  EXPECT_EQ(ValueKey(Value::Num(5)), "5");
  EXPECT_EQ(ValueKey(Value::Num(0.1)), "0.1");
  EXPECT_EQ(ValueKey(Value::Num(-2.5)), "-2.5");
  EXPECT_EQ(ValueKey(Value::Num(-0.0)), ValueKey(Value::Num(0.0)));
  EXPECT_NE(ValueKey(Value::Num(5.0000003)), ValueKey(Value::Num(5.0000005)));
  EXPECT_NE(ValueKey(Value::Num(1e-9)), ValueKey(Value::Num(0)));
  EXPECT_EQ(ValueKey(Value::Null()), "_");
  EXPECT_EQ(ValueKey(Value::Str(7)), "s7");
}

TEST(LiteralKeyTest, KeySeparatesAttrOpAndConstant) {
  const Literal a{2, CmpOp::kGe, Value::Num(5.0000003)};
  EXPECT_EQ(LiteralKey(a), "2#3#5.0000003");
  Literal b = a;
  b.constant = Value::Num(5.0000005);
  EXPECT_NE(LiteralKey(a), LiteralKey(b));
  b = a;
  b.op = CmpOp::kGt;
  EXPECT_NE(LiteralKey(a), LiteralKey(b));
  b = a;
  b.attr = 3;
  EXPECT_NE(LiteralKey(a), LiteralKey(b));
}

}  // namespace
}  // namespace wqe
