// String helpers shared across EFES: splitting/joining, case folding,
// numeric parsing/formatting, and the edit-distance / token similarity
// primitives used by the schema matcher.

#ifndef EFES_COMMON_STRING_UTIL_H_
#define EFES_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace efes {

/// Splits `input` at every occurrence of `delimiter`. Keeps empty pieces,
/// so Split(",a,", ',') yields {"", "a", ""}.
std::vector<std::string> Split(std::string_view input, char delimiter);

/// Joins `pieces` with `separator` in between.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view separator);

/// Removes ASCII whitespace from both ends.
std::string_view Trim(std::string_view input);

/// ASCII lower-casing; non-ASCII bytes pass through unchanged.
std::string ToLower(std::string_view input);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Parses a whole string as a signed 64-bit integer: after Trim, an
/// optional sign and one or more ASCII digits, as strtoll reads base 10.
/// Returns nullopt on anything else and on overflow (strtoll's ERANGE).
/// An exact digit loop; no copy of the text is made.
std::optional<int64_t> ParseInt64(std::string_view text);

/// ParseInt64's grammar without the minus sign, for counts and sizes:
/// "-1" is rejected rather than read as 2^64 - 1, and so is overflow.
std::optional<uint64_t> ParseUint64(std::string_view text);

/// Parses a whole string (after Trim) as a double, exactly as strtod
/// does: the same value bit for bit, -0.0 included, and nullopt on
/// trailing garbage and on ERANGE. A plain decimal `[sign] digits
/// [. digits]` whose significant digits form an integer mantissa of at
/// most 2^53 and whose fraction has at most 22 digits is read without
/// strtod: mantissa and 10^scale are both exact doubles, so their one
/// correctly rounded quotient is the correctly rounded value strtod
/// returns. Everything else (exponents, hex floats, inf/nan, longer
/// mantissas, garbage) goes to strtod.
std::optional<double> ParseDouble(std::string_view text);

/// What ParseInt64 and ParseDouble say about one text, from one scan.
struct NumberReading {
  /// ParseInt64(text).has_value().
  bool integer = false;
  /// ParseDouble(text).
  std::optional<double> real;
};
NumberReading ReadNumber(std::string_view text);

/// Formats a double with up to `precision` significant decimal digits,
/// dropping a trailing ".0" for integral values. Used by report renderers.
std::string FormatDouble(double value, int precision = 6);

/// Classic Levenshtein edit distance, O(|a|·|b|).
size_t EditDistance(std::string_view a, std::string_view b);

/// Normalized name similarity in [0, 1]:
/// 1 - EditDistance(lower(a), lower(b)) / max(|a|, |b|).
/// Both empty counts as similarity 1.
double NameSimilarity(std::string_view a, std::string_view b);

/// Splits an identifier into lowercase tokens at '_', '-', ' ', '.', and
/// camelCase boundaries. "artistList_id" -> {"artist", "list", "id"}.
std::vector<std::string> TokenizeIdentifier(std::string_view identifier);

/// Jaccard similarity of the identifier token sets of `a` and `b`.
double TokenJaccard(std::string_view a, std::string_view b);

}  // namespace efes

#endif  // EFES_COMMON_STRING_UTIL_H_
