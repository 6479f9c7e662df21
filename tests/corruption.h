// The seeded byte mangler shared by the corruption property test and the
// scenario-loader tests: truncations, byte flips, hostile splices and
// duplicated slices, all drawn from the repo's seeded PRNG.

#ifndef EFES_TESTS_CORRUPTION_H_
#define EFES_TESTS_CORRUPTION_H_

#include <string>

#include "efes/common/random.h"

namespace efes {

/// Applies one seeded corruption to `text`: a truncation, a byte
/// mutation, an insertion of hostile bytes, or a combination. The result
/// intentionally includes NUL bytes, stray quotes, lone separators, and
/// cut-off tokens.
inline std::string Corrupt(std::string text, Random& rng) {
  const size_t edits = 1 + rng.UniformUint64(4);
  for (size_t e = 0; e < edits; ++e) {
    if (text.empty()) break;
    switch (rng.UniformUint64(4)) {
      case 0:  // truncate at an arbitrary byte
        text.resize(rng.UniformUint64(text.size() + 1));
        break;
      case 1: {  // flip one byte to an arbitrary value
        size_t at = rng.UniformUint64(text.size());
        text[at] = static_cast<char>(rng.UniformUint64(256));
        break;
      }
      case 2: {  // splice in a hostile fragment
        static const char* kFragments[] = {
            "\"",   ",,,,",      "\r",          "\n\"unterminated",
            "\t",   "->",        ".",           "CREATE TABLE",
            "(",    "REFERENCES", "\xff\xfe",   "--",
        };
        size_t at = rng.UniformUint64(text.size() + 1);
        text.insert(at, kFragments[rng.UniformUint64(
                            sizeof(kFragments) / sizeof(kFragments[0]))]);
        break;
      }
      default: {  // duplicate a random slice (repeated headers/rows)
        size_t from = rng.UniformUint64(text.size());
        size_t len = rng.UniformUint64(text.size() - from + 1);
        text.insert(rng.UniformUint64(text.size() + 1),
                    text.substr(from, len));
        break;
      }
    }
  }
  return text;
}

}  // namespace efes

#endif  // EFES_TESTS_CORRUPTION_H_
