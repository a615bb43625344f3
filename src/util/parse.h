// Strict parsing of the size arguments users type: CLI and daemon flags,
// and the server's `k=` page size.

#ifndef ANYK_UTIL_PARSE_H_
#define ANYK_UTIL_PARSE_H_

#include <charconv>
#include <cstddef>
#include <string_view>
#include <system_error>

namespace anyk {

/// Parse a non-negative decimal integer: digits only — no sign, no
/// whitespace — and within size_t's range. Returns false and leaves `*out`
/// untouched otherwise. (strtoull would silently wrap "-3" to a huge value
/// and accept a leading '+' or blanks; from_chars also ignores the locale.)
inline bool ParseSize(std::string_view s, size_t* out) {
  size_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  *out = v;
  return true;
}

}  // namespace anyk

#endif  // ANYK_UTIL_PARSE_H_
