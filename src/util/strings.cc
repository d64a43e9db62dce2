#include "util/strings.h"

#include <string.h>

#include <cctype>
#include <charconv>

namespace xic {

namespace {

// strerror_r has two incompatible signatures: GNU returns the message
// pointer (possibly ignoring the buffer), XSI fills the buffer and
// returns an int. Overload resolution picks the right adapter for
// whichever one <string.h> declared; [[maybe_unused]] because exactly
// one of the two is ever instantiated per platform.
[[maybe_unused]] const char* StrerrorAdapt(const char* result,
                                           const char* /*buffer*/) {
  return result;  // GNU: result is the message
}
[[maybe_unused]] const char* StrerrorAdapt(int result, const char* buffer) {
  return result == 0 ? buffer : "unknown error";  // XSI
}

}  // namespace

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

bool ParseDecimal(std::string_view text, uint64_t* out) {
  // For an unsigned type from_chars takes digits only: no whitespace and
  // no sign; an empty or overflowing text is an error.
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool IsXmlName(std::string_view name) {
  if (name.empty() || !IsNameStartChar(name[0])) return false;
  for (char c : name.substr(1)) {
    if (!IsNameChar(c)) return false;
  }
  return true;
}

std::string ErrnoMessage(int err) {
  char buffer[256] = "unknown error";
  return StrerrorAdapt(strerror_r(err, buffer, sizeof(buffer)), buffer);
}

}  // namespace xic
