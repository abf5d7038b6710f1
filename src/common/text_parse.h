#ifndef WQE_COMMON_TEXT_PARSE_H_
#define WQE_COMMON_TEXT_PARSE_H_

// Number and token parsing shared by the line-oriented text formats (graph,
// query and exemplar files, query-log replay). These read external bytes, so
// nothing here throws: every helper reports a malformed token by returning
// false, and callers turn that into a Status.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace wqe {

/// Whitespace-separated tokens of `line`; empty for a blank line.
inline std::vector<std::string> SplitWs(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

/// Decimal digits only (no sign, no whitespace), the whole token, in range.
inline bool ParseU32(std::string_view s, uint32_t* out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

/// A finite double spanning the whole token. Rejects inf/nan: non-finite
/// values poison the cost model's range normalizers and the active-domain
/// sort order.
inline bool ParseDouble(std::string_view s, double* out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size() && std::isfinite(*out);
}

}  // namespace wqe

#endif  // WQE_COMMON_TEXT_PARSE_H_
