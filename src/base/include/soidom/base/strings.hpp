/// \file strings.hpp
/// Small string helpers shared across the library.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace soidom {

/// Split on any run of the characters in `seps`; empty tokens are dropped.
std::vector<std::string_view> split(std::string_view text,
                                    std::string_view seps = " \t");

/// Remove leading and trailing whitespace.
std::string_view trim(std::string_view text);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// JSON string-literal escaping (quotes, backslash, control characters);
/// returns the escaped body without surrounding quotes.
std::string json_escape(std::string_view text);

/// Inverse of json_escape for the escapes it emits (\" \\ \n \r \t
/// \uXXXX); unknown escapes pass through verbatim.  Used by the batch
/// journal loader to round-trip its own JSONL records.
std::string json_unescape(std::string_view text);

/// Format a ratio as a percentage with two decimals, e.g. "53.00".
std::string percent(double numerator, double denominator);

/// Extract the string value of `"key":"..."` from one flat JSON record
/// this library wrote itself (keys are never escaped, values via
/// json_escape).  Returns false when the key is absent or the string is
/// unterminated (a torn line).  Not a general JSON parser: it is the
/// shared field extractor of the JSONL journal / wire formats (batch
/// journal, serve protocol), which never nest objects inside values.
bool json_find_string(std::string_view line, std::string_view key,
                      std::string* out);

/// Extract the integer value of `"key":N`.  Returns false when absent or
/// not followed by a decimal integer.
bool json_find_int(std::string_view line, std::string_view key, int* out);

/// 64-bit variant of json_find_int (deadlines, byte counts).
bool json_find_int64(std::string_view line, std::string_view key,
                     long long* out);

/// Strict decimal-integer parse for CLI option values: the whole of `text`
/// must be a base-10 integer fitting in int (optional leading '-').
/// Returns false on empty input, trailing junk, or overflow — unlike
/// std::atoi, which silently yields 0 for garbage (so "--jobs=all" would
/// silently mean 0 instead of failing).
bool parse_int_strict(std::string_view text, int* out);

/// Strict floating-point parse for CLI option values: the whole of `text`
/// must be a finite decimal number ("1", "-0.5", "2.5e-3").  Returns
/// false on empty input, trailing junk, inf/nan, or out-of-range —
/// unlike std::atof, which silently yields 0.0 for garbage (so
/// "--csa-margin=high" would silently mean "no margin" instead of
/// failing).
bool parse_double_strict(std::string_view text, double* out);

}  // namespace soidom
