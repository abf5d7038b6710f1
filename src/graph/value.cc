#include "graph/value.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace wqe {

std::string Value::ToString(const Interner& strings) const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kNum: {
      // Integral doubles print without a decimal point ("840", not "840.0").
      if (num_ == std::floor(num_) && std::abs(num_) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(num_));
        return buf;
      }
      // Shortest representation that round-trips: the text formats
      // (QueryText/ExemplarText) parse these back with from_chars, and the
      // replayed question must fingerprint identically to the original.
      char buf[64];
      for (int prec = 6; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, num_);
        if (std::strtod(buf, nullptr) == num_) break;
      }
      return buf;
    }
    case Kind::kStr:
      return strings.Name(str_);
  }
  return "?";
}

}  // namespace wqe
