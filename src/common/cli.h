// Strict command-line numbers for the tools and benches: a token counts only
// if all of it parses as one number, so a typo, a trailing unit, "nan" or
// "inf" is nullopt, never a silent 0. Callers check range and word errors.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>

namespace raincore::cli {

/// All of `text` as a whole number in [lo, hi]; nullopt otherwise.
inline std::optional<std::uint64_t> whole(std::string_view text,
                                          std::uint64_t lo, std::uint64_t hi) {
  const char* end = text.data() + text.size();
  std::uint64_t v = 0;
  const auto [p, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || p != end || v < lo || v > hi) return std::nullopt;
  return v;
}

/// All of `text` as a finite number; nullopt otherwise.
inline std::optional<double> finite(std::string_view text) {
  const char* end = text.data() + text.size();
  double v = 0.0;
  const auto [p, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || p != end || !std::isfinite(v)) return std::nullopt;
  return v;
}

}  // namespace raincore::cli
