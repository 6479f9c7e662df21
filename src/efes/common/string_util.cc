#include "efes/common/string_util.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cfloat>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>

namespace efes {

std::vector<std::string> Split(std::string_view input, char delimiter) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      pieces.emplace_back(input.substr(start));
      break;
    }
    pieces.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return pieces;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(separator);
    out.append(pieces[i]);
  }
  return out;
}

namespace {

// std::isspace in the "C" locale, the only one EFES runs in, without
// the library call: space, \t, \n, \v, \f and \r.
bool IsAsciiSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

std::string_view Trim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end && IsAsciiSpace(input[begin])) ++begin;
  while (end > begin && IsAsciiSpace(input[end - 1])) --end;
  return input.substr(begin, end - begin);
}

std::string ToLower(std::string_view input) {
  std::string out(input);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

namespace {

// 10^0 .. 10^22, the powers of ten a double holds exactly (5^22 < 2^53).
constexpr double kExactPowersOfTen[] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

// A trimmed text in the plain decimal grammar `[sign] digits [. digits]`
// with at least one digit. The significant digits (leading zeros are
// not) form `mantissa` while it fits in 64 bits; `overflow` says it did
// not. `scale` counts the digits after the dot.
struct PlainDecimal {
  bool negative = false;
  bool has_dot = false;
  bool overflow = false;
  uint64_t mantissa = 0;
  size_t scale = 0;
};

std::optional<PlainDecimal> ScanPlainDecimal(std::string_view text) {
  PlainDecimal decimal;
  size_t i = 0;
  if (i < text.size() && (text[i] == '+' || text[i] == '-')) {
    decimal.negative = text[i] == '-';
    ++i;
  }
  bool any_digit = false;
  size_t significant = 0;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '.' && !decimal.has_dot) {
      decimal.has_dot = true;
      continue;
    }
    if (c < '0' || c > '9') return std::nullopt;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    any_digit = true;
    if (decimal.has_dot) ++decimal.scale;
    if (significant == 0 && digit == 0) continue;
    // 19 digits always fit; a 20th only below 2^64.
    if (significant < 19 ||
        (significant == 19 && !decimal.overflow &&
         decimal.mantissa <=
             (std::numeric_limits<uint64_t>::max() - digit) / 10)) {
      decimal.mantissa = decimal.mantissa * 10 + digit;
      ++significant;
    } else {
      decimal.overflow = true;
    }
  }
  if (!any_digit) return std::nullopt;
  return decimal;
}

std::optional<int64_t> Int64Of(const PlainDecimal& decimal) {
  if (decimal.has_dot || decimal.overflow) return std::nullopt;
  const uint64_t magnitude = decimal.mantissa;
  if (!decimal.negative) {
    if (magnitude > static_cast<uint64_t>(INT64_MAX)) return std::nullopt;
    return static_cast<int64_t>(magnitude);
  }
  if (magnitude > uint64_t{1} << 63) return std::nullopt;
  if (magnitude == 0) return 0;
  return -static_cast<int64_t>(magnitude - 1) - 1;
}

// The value of a plain decimal without strtod, when one division of two
// exact doubles gives it correctly rounded (see ParseDouble); nullopt
// otherwise. Needs arithmetic in double precision, not a wider format.
std::optional<double> ExactDoubleOf(const PlainDecimal& decimal) {
  if (FLT_EVAL_METHOD != 0 || decimal.overflow ||
      decimal.mantissa > uint64_t{1} << 53 || decimal.scale > 22) {
    return std::nullopt;
  }
  double value = static_cast<double>(decimal.mantissa);
  if (decimal.scale > 0) value /= kExactPowersOfTen[decimal.scale];
  return decimal.negative ? -value : value;
}

std::optional<double> StrtodOf(std::string_view trimmed) {
  const std::string buffer(trimmed);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buffer.c_str(), &end);
  if (errno == ERANGE || end != buffer.c_str() + buffer.size()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

std::optional<int64_t> ParseInt64(std::string_view text) {
  const std::optional<PlainDecimal> decimal = ScanPlainDecimal(Trim(text));
  return decimal.has_value() ? Int64Of(*decimal) : std::nullopt;
}

std::optional<uint64_t> ParseUint64(std::string_view text) {
  const std::string_view trimmed = Trim(text);
  if (!trimmed.empty() && trimmed.front() == '-') return std::nullopt;
  const std::optional<PlainDecimal> decimal = ScanPlainDecimal(trimmed);
  if (!decimal.has_value() || decimal->has_dot || decimal->overflow) {
    return std::nullopt;
  }
  return decimal->mantissa;
}

std::optional<double> ParseDouble(std::string_view text) {
  return ReadNumber(text).real;
}

NumberReading ReadNumber(std::string_view text) {
  const std::string_view trimmed = Trim(text);
  NumberReading reading;
  if (trimmed.empty()) return reading;
  if (const std::optional<PlainDecimal> decimal = ScanPlainDecimal(trimmed)) {
    reading.integer = Int64Of(*decimal).has_value();
    reading.real = ExactDoubleOf(*decimal);
  }
  if (!reading.real.has_value()) reading.real = StrtodOf(trimmed);
  return reading;
}

std::string FormatDouble(double value, int precision) {
  std::ostringstream oss;
  oss.precision(precision);
  oss << value;
  return oss.str();
}

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);
  // b is now the shorter string; keep one rolling row of the DP matrix.
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diagonal = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t above = row[j];
      size_t substitution = diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({above + 1, row[j - 1] + 1, substitution});
      diagonal = above;
    }
  }
  return row[b.size()];
}

double NameSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  std::string la = ToLower(a);
  std::string lb = ToLower(b);
  size_t distance = EditDistance(la, lb);
  size_t longest = std::max(la.size(), lb.size());
  return 1.0 - static_cast<double>(distance) / static_cast<double>(longest);
}

std::vector<std::string> TokenizeIdentifier(std::string_view identifier) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&]() {
    if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  };
  for (size_t i = 0; i < identifier.size(); ++i) {
    char c = identifier[i];
    if (c == '_' || c == '-' || c == ' ' || c == '.') {
      flush();
      continue;
    }
    // camelCase boundary: lower/digit followed by upper starts a new token.
    if (std::isupper(static_cast<unsigned char>(c)) && !current.empty() &&
        !std::isupper(static_cast<unsigned char>(current.back()))) {
      flush();
    }
    current.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  }
  flush();
  return tokens;
}

double TokenJaccard(std::string_view a, std::string_view b) {
  std::vector<std::string> ta = TokenizeIdentifier(a);
  std::vector<std::string> tb = TokenizeIdentifier(b);
  if (ta.empty() && tb.empty()) return 1.0;
  std::set<std::string> sa(ta.begin(), ta.end());
  std::set<std::string> sb(tb.begin(), tb.end());
  size_t intersection = 0;
  for (const std::string& token : sa) {
    intersection += sb.count(token);
  }
  size_t union_size = sa.size() + sb.size() - intersection;
  if (union_size == 0) return 1.0;
  return static_cast<double>(intersection) /
         static_cast<double>(union_size);
}

}  // namespace efes
