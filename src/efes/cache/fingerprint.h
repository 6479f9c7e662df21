// Deterministic content fingerprints — the keys of the profile cache.
//
// A fingerprint is a 64-bit FNV-1a hash over a canonical byte encoding of
// the hashed content: every ingredient is length- or tag-prefixed, so
// concatenation ambiguities ("ab"+"c" vs "a"+"bc") cannot collide, and
// doubles hash by bit pattern, so two columns fingerprint equal iff their
// typed values are identical. The hash is implemented in-tree (no
// dependency) and fixed forever: fingerprints are persisted in cache
// files, so changing the function is a cache-format version bump
// (profile_cache.h), never a silent edit here.

#ifndef EFES_CACHE_FINGERPRINT_H_
#define EFES_CACHE_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "efes/relational/database.h"
#include "efes/relational/value.h"

namespace efes {

/// Incremental FNV-1a (64-bit) hasher with typed, prefix-free mixers.
class Fingerprinter {
 public:
  Fingerprinter& MixBytes(const void* data, size_t size);
  Fingerprinter& MixUint64(uint64_t v);
  Fingerprinter& MixBool(bool v) { return MixUint64(v ? 1 : 0); }
  /// Bit-pattern hash: -0.0 and 0.0 differ, every NaN payload differs.
  Fingerprinter& MixDouble(double v);
  /// Length-prefixed, so adjacent strings cannot shift into each other.
  Fingerprinter& MixString(std::string_view s);
  /// Type tag + payload; NULL mixes the tag alone.
  Fingerprinter& MixValue(const Value& v);
  /// MixValue(Value::Text(text)), without building the value.
  Fingerprinter& MixText(std::string_view text);

  uint64_t digest() const { return hash_; }

 private:
  static constexpr uint64_t kOffsetBasis = 14695981039346656037ull;
  uint64_t hash_ = kOffsetBasis;
};

/// Key of one column profile: the typed cell values in row order plus the
/// target datatype the statistics are evaluated against.
uint64_t FingerprintColumn(const std::vector<Value>& column,
                           DataType target_type);

/// Key ingredient for per-source discovered constraints: schema name,
/// relations (names, attributes, types), declared constraints, and every
/// cell value of every table, all in canonical schema order. Renaming a
/// column, editing a value, or adding a constraint each change the
/// fingerprint.
uint64_t FingerprintDatabase(const Database& database);

/// Mixes one constraint definition (kind, relation, attribute lists).
void MixConstraint(Fingerprinter& fp, const Constraint& constraint);

/// Canonical 16-digit lowercase hex rendering (cache-file key format).
std::string FingerprintToHex(uint64_t fingerprint);

}  // namespace efes

#endif  // EFES_CACHE_FINGERPRINT_H_
