#ifndef WQE_EXEMPLAR_EXEMPLAR_TEXT_H_
#define WQE_EXEMPLAR_EXEMPLAR_TEXT_H_

#include <string>

#include "common/status.h"
#include "exemplar/exemplar.h"
#include "graph/schema.h"

namespace wqe {

/// Line-oriented text format for exemplars — the declarative surface the
/// paper sketches as SQL over node tables (§2.2 Remarks). Example 2.3 reads:
///
///   wqe-exemplar v1
///   tuple display=6.2 storage=? price=?
///   tuple display=6.3 storage=? price=?
///   where t1.price < 800
///   where t0.storage > t1.storage
///
/// Cell syntax: `attr=<number>` or `attr=str:<text>` for constants,
/// `attr=?` for a variable/wildcard cell. Constraint syntax:
/// `where t<i>.<attr> <op> (t<j>.<attr> | <number> | str:<text>)`.
/// Attribute names and string constants are interned into `schema`. Blank
/// lines and lines starting with '#' are skipped; Parse never throws, and a
/// malformed record or number is InvalidArgument.
class ExemplarText {
 public:
  static std::string ToText(const Exemplar& e, const Schema& schema);
  static Result<Exemplar> Parse(const std::string& text, Schema* schema);
};

}  // namespace wqe

#endif  // WQE_EXEMPLAR_EXEMPLAR_TEXT_H_
