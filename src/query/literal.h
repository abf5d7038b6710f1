#ifndef WQE_QUERY_LITERAL_H_
#define WQE_QUERY_LITERAL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "graph/graph.h"
#include "graph/schema.h"
#include "graph/value.h"

namespace wqe {

/// Comparison operator of a predicate literal (§2.1): {<, <=, =, >=, >}.
enum class CmpOp : uint8_t { kLt, kLe, kEq, kGe, kGt };

/// Renders "<", "<=", "=", ">=", ">".
const char* CmpOpName(CmpOp op);

/// Inverse of CmpOpName; false for any other token.
bool ParseCmpOp(std::string_view s, CmpOp* op);

/// Evaluates `lhs op rhs` for two concrete values. Numeric pairs compare
/// numerically; categorical pairs support only equality (ordered operators
/// on categorical values are false — the paper treats such domains as
/// incomparable, §5.3). Mixed kinds are false.
bool EvalCmp(const Value& lhs, CmpOp op, const Value& rhs);

/// Constant literal `u.A op c` in a query predicate F_Q(u). A null constant
/// encodes the wildcard form "u.A = ⊥" (Appendix B, RfL rule 1): it requires
/// only that the node carries attribute A.
struct Literal {
  AttrId attr = 0;
  CmpOp op = CmpOp::kEq;
  Value constant;  // Null() means wildcard: any value satisfies.

  /// True when the literal only asserts attribute existence.
  bool is_wildcard() const { return constant.is_null(); }

  /// Evaluates the literal against node `v` of `g`: v must carry `attr` and
  /// its value must satisfy `op constant`.
  bool Matches(const Graph& g, NodeId v) const {
    const Value* val = g.attr(v, attr);
    if (val == nullptr) return false;
    if (is_wildcard()) return true;
    return EvalCmp(*val, op, constant);
  }

  /// Same literal (attribute, operator, and constant all equal)?
  friend bool operator==(const Literal& a, const Literal& b) {
    return a.attr == b.attr && a.op == b.op && a.constant == b.constant;
  }

  std::string ToString(const Schema& schema) const;
};

/// Exact text key of a constant: "_" for the wildcard, "s<symbol>" for an
/// interned string, and the shortest decimal that round-trips the double
/// (std::to_chars, with -0 folded to 0) for a number — so two distinct
/// constants never share a key, however close they are.
std::string ValueKey(const Value& v);

/// Exact text key of a literal, "<attr>#<op>#<ValueKey>". The one renderer
/// behind query fingerprints, filter-plan fingerprints and star-view
/// signatures; keys stay printable because query logs and replay compare
/// fingerprints.
std::string LiteralKey(const Literal& l);

}  // namespace wqe

#endif  // WQE_QUERY_LITERAL_H_
