#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace credo::util {
namespace {

bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' ||
         c == '\v';
}

}  // namespace

std::string_view trim(std::string_view s) noexcept {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && s[i] == delim) ++i;
    std::size_t j = i;
    while (j < s.size() && s[j] != delim) ++j;
    if (j > i) out.push_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::optional<std::uint64_t> parse_u64(std::string_view s) noexcept {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<float> parse_float(std::string_view s) noexcept {
  const auto d = parse_double(s);
  if (!d) return std::nullopt;
  return static_cast<float>(*d);
}

std::optional<double> parse_double(std::string_view s) noexcept {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  // std::from_chars for floating point is available in libstdc++ >= 11.
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<std::string_view> FieldCursor::next() noexcept {
  std::size_t i = 0;
  while (i < rest_.size() && is_space(rest_[i])) ++i;
  if (i == rest_.size()) {
    rest_ = {};
    return std::nullopt;
  }
  std::size_t j = i;
  while (j < rest_.size() && !is_space(rest_[j])) ++j;
  const auto field = rest_.substr(i, j - i);
  rest_ = rest_.substr(j);
  return field;
}

std::optional<std::uint64_t> FieldCursor::next_u64() noexcept {
  const auto f = next();
  if (!f) return std::nullopt;
  return parse_u64(*f);
}

std::optional<float> FieldCursor::next_float() noexcept {
  const auto f = next();
  if (!f) return std::nullopt;
  return parse_float(*f);
}

bool FieldCursor::done() noexcept {
  std::size_t i = 0;
  while (i < rest_.size() && is_space(rest_[i])) ++i;
  return i == rest_.size();
}

}  // namespace credo::util
