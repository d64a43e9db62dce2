// Small string utilities shared across xic modules.

#ifndef XIC_UTIL_STRINGS_H_
#define XIC_UTIL_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace xic {

/// Splits `text` on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view text, char sep);

/// Joins `pieces` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// Parses a strict unsigned decimal: one or more ASCII digits and nothing
/// else -- no sign, no whitespace -- whose value fits in 64 bits. On
/// success stores the value and returns true; otherwise leaves `*out`
/// unchanged. (strtoul would skip spaces, accept a sign and wrap "-1" to
/// the type's maximum.)
bool ParseDecimal(std::string_view text, uint64_t* out);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// True for XML `S` whitespace (production [3]): #x20 #x9 #xD #xA.
/// Deliberately narrower than std::isspace, which also accepts \f/\v --
/// characters that are not even valid XML Chars -- and whose answer can
/// shift with the C locale.
constexpr bool IsXmlSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// Calls `f(token)` for each maximal run of non-XML-S characters in
/// `text`, in order: the whitespace-separated tokens of a set-valued
/// (IDREFS-style) attribute value. Tokens are views into `text`.
template <typename F>
void ForEachXmlSpaceToken(std::string_view text, F&& f) {
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && IsXmlSpace(text[i])) ++i;
    size_t start = i;
    while (i < text.size() && !IsXmlSpace(text[i])) ++i;
    if (i > start) f(text.substr(start, i - start));
  }
}

/// True for XML NameStartChar restricted to the ASCII subset we support
/// (letters, '_', ':'). ASCII by construction, so the answer never shifts
/// with the C locale the way std::isalpha's can.
constexpr bool IsNameStartChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

/// True for XML NameChar restricted to ASCII (NameStartChar, digits, '-',
/// '.').
constexpr bool IsNameChar(char c) {
  return IsNameStartChar(c) || (c >= '0' && c <= '9') || c == '-' ||
         c == '.';
}

/// True if `name` is a well-formed (ASCII-subset) XML name.
bool IsXmlName(std::string_view name);

/// Thread-safe strerror(3): renders `err` (an errno value) without the
/// shared static buffer that makes std::strerror unusable from
/// concurrent server threads (clang-tidy concurrency-mt-unsafe).
std::string ErrnoMessage(int err);

}  // namespace xic

#endif  // XIC_UTIL_STRINGS_H_
