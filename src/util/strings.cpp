#include "util/strings.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace autosec::util {

std::string_view trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view text, char separator) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(separator, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string join(const std::vector<std::string>& pieces, std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += separator;
    out += pieces[i];
  }
  return out;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string format_sig(double value, int significant_digits) {
  if (significant_digits < 1) significant_digits = 1;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*g", significant_digits, value);
  return buffer;
}

std::string format_percent(double ratio, int significant_digits) {
  return format_sig(ratio * 100.0, significant_digits) + "%";
}

uint64_t fnv1a64(std::string_view text) {
  uint64_t hash = 1469598103934665603ull;  // FNV offset basis
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

std::string hex64(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace autosec::util
