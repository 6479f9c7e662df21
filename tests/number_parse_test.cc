// Differential tests of the number parsers: ParseInt64, ParseUint64,
// ParseDouble and ReadNumber (common/string_util.h) against the
// strtoll/strtoull/strtod formulations they replaced
// (tests/number_reference.h), on a fixed edge list and on generated
// texts. Doubles are compared by bit pattern, so -0.0 and the NaN a
// text reads as are checked too.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "efes/common/random.h"
#include "efes/common/string_util.h"
#include "number_reference.h"

namespace efes {
namespace {

/// Every parser's reading of `text` equals its reference's: presence,
/// value, and for doubles the bit pattern. Returns an empty string on
/// agreement, else what differed.
std::string Disagreement(const std::string& text) {
  std::string out;
  if (ParseInt64(text) != ReferenceParseInt64(text)) out += " ParseInt64";
  if (ParseUint64(text) != ReferenceParseUint64(text)) out += " ParseUint64";
  const std::optional<double> expected = ReferenceParseDouble(text);
  auto same = [&expected](const std::optional<double>& actual) {
    return actual.has_value() == expected.has_value() &&
           (!actual.has_value() || std::bit_cast<uint64_t>(*actual) ==
                                       std::bit_cast<uint64_t>(*expected));
  };
  if (!same(ParseDouble(text))) out += " ParseDouble";
  const NumberReading reading = ReadNumber(text);
  if (!same(reading.real)) out += " ReadNumber.real";
  if (reading.integer != ReferenceParseInt64(text).has_value()) {
    out += " ReadNumber.integer";
  }
  return out;
}

TEST(NumberParseTest, EdgeCasesMatchTheCParsers) {
  const std::vector<std::string> edges = {
      "0", "-0", "+0", "-0.0", "0.", "-.0", "+.5", "-.5", ".5", "5.", ".",
      "-.", "+", "-", "", " ", "\t\n", "007.50", "0.05",
      "000000000000000000042", "1.5", "-2e3", "12abc", "1.5x", "12--34",
      "'98", "1..2", "1.2.3", "1 2", "- 5", "+-5", "--5", "5-", "1e", "1e+",
      "e5", "1,5",
      // The mantissa bound: 2^53 and its neighbours, as integers and with
      // a scale.
      "9007199254740991", "9007199254740992", "9007199254740993",
      "-9007199254740993", "900719925474099.3", "0.9007199254740993",
      "9007199254740992.5", "4503599627370497.5",
      // 19 and 20 significant digits.
      "1234567890123456789", "9999999999999999999", "12345678901234567890",
      "0.1234567890123456789", "0.12345678901234567890",
      "1234567890.123456789", "00001234567890123456789",
      "99999999999999999999999999", "18446744073709551615",
      "18446744073709551616", "-18446744073709551615",
      // The scale bound: 10^22 is the last exact power of ten.
      "1e22", "1e23", "0.0000000000000000000001", "0.00000000000000000000001",
      "1.0000000000000000000000", "1.00000000000000000000000",
      "9007199254740992.0000000", "0.3", "0.1", "0.2", "2.675", "1.005",
      // Range limits and subnormals: strtod reports ERANGE.
      "1e-400", "1e400", "-1e400", "4.9e-324", "2.2250738585072014e-308",
      "1.7976931348623157e308", "1.7976931348623159e308",
      // What strtod reads and the plain grammar does not.
      "0x1p3", "0X10", "0x", "inf", "-inf", "+INF", "infinity", "nan",
      "-nan", "NaN", "nan(123)", "1e5", "1E-5", "-1.5e+10",
      // Surrounding whitespace is trimmed; inner whitespace is garbage.
      " 8.5 ", "\t-3\n", " 42", "42 ", "\v7\f", "4 2",
      // int64 and uint64 limits.
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "+9223372036854775808", "+9223372036854775807",
      std::string("1\0002", 3), std::string("\0", 1)};
  for (const std::string& text : edges) {
    EXPECT_EQ(Disagreement(text), "") << "text: '" << text << "'";
  }
}

TEST(NumberParseTest, SpotValues) {
  EXPECT_EQ(ParseInt64("-9223372036854775808"), INT64_MIN);
  EXPECT_EQ(ParseInt64("9223372036854775807"), INT64_MAX);
  EXPECT_FALSE(ParseInt64("9223372036854775808").has_value());
  EXPECT_EQ(ParseUint64("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(ParseUint64("18446744073709551616").has_value());
  EXPECT_FALSE(ParseUint64("-1").has_value());
  EXPECT_FALSE(ParseUint64("-0").has_value());
  EXPECT_EQ(std::bit_cast<uint64_t>(*ParseDouble("-0")),
            std::bit_cast<uint64_t>(-0.0));
  EXPECT_EQ(*ParseDouble("007.50"), 7.5);
  EXPECT_EQ(*ParseDouble("0.05"), 0.05);
  EXPECT_EQ(*ParseDouble("9007199254740993"), 9007199254740992.0);
  const NumberReading integer = ReadNumber(" 42 ");
  EXPECT_TRUE(integer.integer);
  EXPECT_EQ(integer.real, 42.0);
  const NumberReading real = ReadNumber("4.5");
  EXPECT_FALSE(real.integer);
  EXPECT_EQ(real.real, 4.5);
  const NumberReading text = ReadNumber("4.5x");
  EXPECT_FALSE(text.integer);
  EXPECT_FALSE(text.real.has_value());
}

/// `count` random decimal digits.
void AppendDigits(Random& rng, size_t count, std::string* text) {
  for (size_t i = 0; i < count; ++i) {
    text->push_back(static_cast<char>('0' + rng.UniformUint64(10)));
  }
}

/// A text built to sit near the parsers' decisions: signs, leading and
/// trailing zeros, dots, exponents, surrounding spaces, letters, and
/// mantissas and scales around the fast path's bounds.
std::string GeneratedNumberText(Random& rng) {
  static const std::vector<std::string> kWords = {
      "inf", "-inf", "nan", "-nan", "infinity", "0x1p3", "0x1A", "e", "."};
  if (rng.Bernoulli(0.01)) return rng.Choice(kWords);
  std::string text;
  if (rng.Bernoulli(0.1)) text.append(1 + rng.UniformUint64(2), ' ');
  switch (rng.UniformUint64(4)) {
    case 0:
      text.push_back('-');
      break;
    case 1:
      text.push_back('+');
      break;
    default:
      break;
  }
  if (rng.Bernoulli(0.2)) text.append(rng.UniformUint64(4), '0');
  if (rng.Bernoulli(0.15)) {
    // A mantissa within 2^10 of 2^53, with the dot anywhere in it.
    const uint64_t mantissa =
        (uint64_t{1} << 53) - 1024 + rng.UniformUint64(2048);
    std::string digits = std::to_string(mantissa);
    digits.insert(rng.UniformUint64(digits.size() + 1), 1, '.');
    text += digits;
  } else {
    AppendDigits(rng, rng.UniformUint64(22), &text);
    if (rng.Bernoulli(0.6)) {
      text.push_back('.');
      if (rng.Bernoulli(0.3)) text.append(rng.UniformUint64(20), '0');
      AppendDigits(rng, rng.UniformUint64(25), &text);
      if (rng.Bernoulli(0.2)) text.append(rng.UniformUint64(6), '0');
    }
  }
  if (rng.Bernoulli(0.1)) {
    text.push_back(rng.Bernoulli(0.5) ? 'e' : 'E');
    if (rng.Bernoulli(0.5)) text.push_back(rng.Bernoulli(0.5) ? '-' : '+');
    AppendDigits(rng, rng.UniformUint64(4), &text);
  }
  if (rng.Bernoulli(0.05)) {
    static const std::string kStray = "xX.-+ eEaz\t";
    text.insert(rng.UniformUint64(text.size() + 1), 1,
                kStray[rng.UniformUint64(kStray.size())]);
  }
  if (rng.Bernoulli(0.1)) text.append(1 + rng.UniformUint64(2), ' ');
  return text;
}

TEST(NumberParseTest, GeneratedTextsMatchTheCParsers) {
  Random rng(20150323);
  constexpr size_t kTexts = 1000000;
  size_t failures = 0;
  size_t numbers = 0;
  for (size_t i = 0; i < kTexts; ++i) {
    const std::string text = GeneratedNumberText(rng);
    const std::string disagreement = Disagreement(text);
    if (!disagreement.empty() && ++failures <= 20) {
      ADD_FAILURE() << "text '" << text << "':" << disagreement;
    }
    if (ReferenceParseDouble(text).has_value()) ++numbers;
  }
  EXPECT_EQ(failures, 0u);
  // The generator must mostly produce numbers, or the bit comparison
  // checks little.
  EXPECT_GT(numbers, kTexts / 2);
}

}  // namespace
}  // namespace efes
