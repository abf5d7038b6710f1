#ifndef WQE_QUERY_QUERY_TEXT_H_
#define WQE_QUERY_QUERY_TEXT_H_

#include <string>

#include "common/status.h"
#include "graph/schema.h"
#include "query/query.h"

namespace wqe {

/// Line-oriented text format for pattern queries, used by examples and test
/// fixtures. Interns labels / attributes / strings into the supplied schema
/// (which must be the graph's schema so ids agree):
///
///   wqe-query v1
///   focus <idx>
///   node <idx> <label>             ("_" for the wildcard label ⊥)
///   lit <idx> <attr> <op> (num <c> | str <c> | any)
///   edge <from> <to> <bound>
///
/// Blank lines and lines starting with '#' are skipped. Parse never throws:
/// a malformed record or number (ids and bounds are unsigned 32-bit decimal,
/// constants finite doubles) is InvalidArgument.
class QueryText {
 public:
  static std::string ToText(const PatternQuery& q, const Schema& schema);
  static Result<PatternQuery> Parse(const std::string& text, Schema* schema);
};

}  // namespace wqe

#endif  // WQE_QUERY_QUERY_TEXT_H_
