#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace satfr {

std::vector<std::string> SplitWhitespace(std::string_view text) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    std::size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > start) {
      tokens.emplace_back(text.substr(start, i - start));
    }
  }
  return tokens;
}

std::vector<std::string> SplitChar(std::string_view text, char sep) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      fields.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

std::string_view Trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string Join(const std::vector<std::string>& items,
                 std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out.append(separator);
    out.append(items[i]);
  }
  return out;
}

std::string FormatWithCommas(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  std::string raw(buffer);
  // Insert commas into the integer part only.
  std::size_t dot = raw.find('.');
  std::size_t int_end = (dot == std::string::npos) ? raw.size() : dot;
  std::size_t int_begin = (!raw.empty() && raw[0] == '-') ? 1 : 0;
  std::string out = raw.substr(0, int_begin);
  const std::size_t int_len = int_end - int_begin;
  for (std::size_t i = 0; i < int_len; ++i) {
    if (i > 0 && (int_len - i) % 3 == 0) out.push_back(',');
    out.push_back(raw[int_begin + i]);
  }
  out.append(raw.substr(int_end));
  return out;
}

std::string FormatSecondsPaperStyle(double seconds) {
  if (!(seconds >= 0.0) || std::isinf(seconds)) {
    return "-";
  }
  if (seconds >= 1000.0) {
    return FormatWithCommas(std::round(seconds), 0);
  }
  return FormatWithCommas(seconds, 2);
}

std::optional<int> ParseInt(std::string_view text, int min_value) {
  int value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min_value) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> ParseDouble(std::string_view text) {
  double value = 0.0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace satfr
