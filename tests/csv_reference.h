// A byte-at-a-time CSV scanner, kept as a test oracle.
//
// The scanner in common/csv.cc finds the end of a run of plain bytes
// eight bytes at a time and resolves a quote or CR that ends one input
// block with pending flags. ReferenceScanCsv is the plain formulation:
// the whole text at once, one byte per step, looking ahead one byte for
// a doubled quote and for the LF of a CRLF. tests/csv_test.cc compares
// the two on documents that put every break byte at every word offset.

#ifndef EFES_TESTS_CSV_REFERENCE_H_
#define EFES_TESTS_CSV_REFERENCE_H_

#include <string>
#include <string_view>
#include <vector>

namespace efes {

struct ReferenceCsv {
  /// Every record in input order, the header first, unconformed.
  std::vector<std::vector<std::string>> records;
  /// The input ended inside a quoted cell.
  bool unterminated_quote = false;
};

ReferenceCsv ReferenceScanCsv(std::string_view text, char delimiter);

}  // namespace efes

#endif  // EFES_TESTS_CSV_REFERENCE_H_
