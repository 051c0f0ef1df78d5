// Small string helpers shared by the parsers, writers and table printers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace autosec::util {

/// Remove leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Split on a single character; empty fields are kept.
std::vector<std::string> split(std::string_view text, char separator);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Join the pieces with `separator` between them.
std::string join(const std::vector<std::string>& pieces, std::string_view separator);

/// Lower-case an ASCII string.
std::string to_lower(std::string_view text);

/// printf-style double formatting with a fixed number of significant digits,
/// e.g. format_sig(0.0123456, 3) == "0.0123".
std::string format_sig(double value, int significant_digits);

/// Format a ratio as a percentage string, e.g. 0.122 -> "12.2%".
std::string format_percent(double ratio, int significant_digits = 3);

/// FNV-1a 64-bit digest (architecture contents, store identities, payloads).
uint64_t fnv1a64(std::string_view text);

/// `value` as 16 lower-case hex digits.
std::string hex64(uint64_t value);

}  // namespace autosec::util
