// Small string utilities shared by DIMACS I/O, benches and examples.
#pragma once

#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace satfr {

/// Splits on any run of whitespace; no empty tokens are produced.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Splits on a single character; empty fields are preserved.
std::vector<std::string> SplitChar(std::string_view text, char sep);

/// Removes leading and trailing whitespace.
std::string_view Trim(std::string_view text);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Joins items with a separator.
std::string Join(const std::vector<std::string>& items,
                 std::string_view separator);

/// Parses the whole of `text` as a base-10 int no smaller than
/// `min_value`. Empty text, a sign other than a leading '-', whitespace,
/// trailing characters, values below `min_value` and values outside the
/// int range all give nullopt.
std::optional<int> ParseInt(std::string_view text,
                            int min_value = std::numeric_limits<int>::min());

/// Parses the whole of `text` as a finite decimal number ("2", "0.5",
/// "1e-3"). Empty text, trailing characters, inf, nan and values outside
/// the double range give nullopt.
std::optional<double> ParseDouble(std::string_view text);

/// Formats seconds the way the paper's tables do: "0.12", "1,443.80",
/// "1,054,417" (>= 1000 s rendered without decimals, with thousands commas).
std::string FormatSecondsPaperStyle(double seconds);

/// Formats a double with `digits` decimals and thousands separators.
std::string FormatWithCommas(double value, int digits);

}  // namespace satfr
