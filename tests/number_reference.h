// The strtoll/strtod/strtoull number parsers, kept as a test oracle.
//
// ParseInt64, ParseUint64 and ParseDouble (common/string_util.h) read
// plain decimals with a digit loop and one exact division instead of
// copying the text and calling the C library. These are the
// formulations they replaced: Trim, copy the text, call the C parser,
// and reject trailing bytes and ERANGE. tests/number_parse_test.cc
// compares the two, value for value and bit for bit.

#ifndef EFES_TESTS_NUMBER_REFERENCE_H_
#define EFES_TESTS_NUMBER_REFERENCE_H_

#include <cstdint>
#include <optional>
#include <string_view>

namespace efes {

/// strtoll, base 10, over the trimmed text.
std::optional<int64_t> ReferenceParseInt64(std::string_view text);

/// strtoull, base 10, over the trimmed text, with a leading minus
/// rejected rather than negated.
std::optional<uint64_t> ReferenceParseUint64(std::string_view text);

/// strtod over the trimmed text.
std::optional<double> ReferenceParseDouble(std::string_view text);

}  // namespace efes

#endif  // EFES_TESTS_NUMBER_REFERENCE_H_
