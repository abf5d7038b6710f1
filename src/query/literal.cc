#include "query/literal.h"

#include <charconv>

namespace wqe {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kEq:
      return "=";
    case CmpOp::kGe:
      return ">=";
    case CmpOp::kGt:
      return ">";
  }
  return "?";
}

bool ParseCmpOp(std::string_view s, CmpOp* op) {
  for (CmpOp c : {CmpOp::kLt, CmpOp::kLe, CmpOp::kEq, CmpOp::kGe, CmpOp::kGt}) {
    if (s == CmpOpName(c)) {
      *op = c;
      return true;
    }
  }
  return false;
}

bool EvalCmp(const Value& lhs, CmpOp op, const Value& rhs) {
  if (lhs.is_num() && rhs.is_num()) {
    const double a = lhs.num(), b = rhs.num();
    switch (op) {
      case CmpOp::kLt:
        return a < b;
      case CmpOp::kLe:
        return a <= b;
      case CmpOp::kEq:
        return a == b;
      case CmpOp::kGe:
        return a >= b;
      case CmpOp::kGt:
        return a > b;
    }
  }
  if (lhs.is_str() && rhs.is_str()) {
    return op == CmpOp::kEq && lhs.str() == rhs.str();
  }
  return false;
}

std::string Literal::ToString(const Schema& schema) const {
  std::string s = schema.AttrName(attr);
  if (is_wildcard()) {
    s += " exists";
    return s;
  }
  s += ' ';
  s += CmpOpName(op);
  s += ' ';
  s += schema.ValueToString(constant);
  return s;
}

std::string ValueKey(const Value& v) {
  if (v.is_null()) return "_";
  if (v.is_str()) {
    std::string key = "s";
    key += std::to_string(v.str());
    return key;
  }
  const double num = v.num() == 0 ? 0.0 : v.num();
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), num);
  return std::string(buf, r.ptr);
}

std::string LiteralKey(const Literal& l) {
  return std::to_string(l.attr) + "#" +
         std::to_string(static_cast<int>(l.op)) + "#" + ValueKey(l.constant);
}

}  // namespace wqe
