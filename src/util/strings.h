// Small, allocation-light string and number parsing helpers shared by the
// input parsers. The MTX-belief reader's hot loop is built on these.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace credo::util {

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Splits on any run of the given delimiter (empty tokens are dropped).
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  char delim = ' ');

/// Case-insensitive ASCII equality.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b) noexcept;

/// Parses an unsigned integer; returns nullopt on any malformed input
/// (empty, overflow, trailing garbage).
[[nodiscard]] std::optional<std::uint64_t> parse_u64(
    std::string_view s) noexcept;

/// Parses a float; returns nullopt on malformed input.
[[nodiscard]] std::optional<float> parse_float(std::string_view s) noexcept;

/// Parses a double; returns nullopt on malformed input.
[[nodiscard]] std::optional<double> parse_double(std::string_view s) noexcept;

/// In-place cursor over a whitespace-separated record; the parsers use one
/// per line to pull fields without allocating.
class FieldCursor {
 public:
  explicit FieldCursor(std::string_view line) noexcept : rest_(line) {}

  /// Next whitespace-separated field, or nullopt when exhausted.
  std::optional<std::string_view> next() noexcept;

  /// Next field parsed as u64 / float; nullopt if missing or malformed.
  std::optional<std::uint64_t> next_u64() noexcept;
  std::optional<float> next_float() noexcept;

  /// True when no fields remain.
  [[nodiscard]] bool done() noexcept;

 private:
  std::string_view rest_;
};

}  // namespace credo::util
