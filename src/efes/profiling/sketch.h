// Mergeable statistic sketches — out-of-core profiling (DESIGN.md §16).
//
// Profiling one whole materialized column in a single pass would cap
// EFES far below the 100M+ row target. This layer builds profiling
// around a *mergeable accumulator*:
//
//   StatisticsSketch sketch(type, options);
//   sketch.Absorb(chunk values...);      // any partition of the column
//   sketch.Merge(other);                 // any merge tree
//   AttributeStatistics s = sketch.Finalize();
//
// Canonical-state contract (the reason output stays byte-identical for
// any --threads=N, any chunk size, and any merge order): every piece of
// sketch state is a pure, order-independent function of the *multiset*
// of absorbed values. Counters are integer sums, min/max are exact
// scalars, and the value-frequency map is keyed by value — no float is
// ever accumulated across chunks. Finalize() derives all nine §5.1
// statistics without depending on the map's iteration order, and
// without sorting or copying the distinct values:
//   * counts, distinct counts, patterns and the character histogram are
//     integer sums;
//   * constancy sums over the histogram of counts, and the string-length
//     moments over the histogram of lengths, each in key order;
//   * numeric moments and buckets run over the (reading, count) pairs
//     sorted by reading — Value's own order when every tracked value is
//     a number;
//   * top-k is a bounded selection by count, ties broken by a total
//     order over values, and copies only its winners.
// So two sketches with equal state render bit-identical statistics.
//
// Type inference as mergeable state: StatisticsSketch::Inferring()
// starts without a target type and infers one from the text cells it
// absorbs — INTEGER when every non-null cell parses as a 64-bit integer,
// else REAL when every one parses as a double, else TEXT (also when no
// cell is non-null). The state is two flags, "may be integer" and "may
// be real", that only ever clear, and Merge ANDs them; the numeric
// min/max/count are kept only while the column may be real and are
// zeroed when it cannot be. So the inference is a pure function of the
// multiset too, and an inferring sketch finalizes exactly as a sketch
// typed with the inferred type up front would, over the same cells:
// every cell casts to that type, so uncastable stays 0. This is how
// `efes profile` types and profiles a CSV column in one pass.
//
// Text views: AbsorbText(text) is Absorb(Value::Text(text)) without the
// value. The tracked map looks the view up through a transparent hash
// and equality (ValueHash/ValueEqual, relational/value.h), the sample
// hash is computed from the view, and a Value is built only for a new
// tracked entry.
//
// Non-finite numbers: a numeric reading counts only when it is finite.
// NaN and ±inf cells (REAL columns may hold them) still count in fill
// status, constancy and top-k, but never reach the range, the moments
// or the histogram buckets. Each NaN cell is a tracked entry of its own
// (NaN never equals itself); the top-k tie-break ranks NaNs after every
// number.
//
// Approximation taxonomy (ProfileOptions::mode):
//   * kExact  — the frequency map holds every distinct value. A
//     --max-memory budget turns overflow into kResourceExhausted.
//   * kSketch — the map is capped: values are tracked iff the top
//     `level` bits of their 64-bit content hash are zero (an adaptive
//     KMV/hash-threshold sample, each tracked value with an *exact*
//     count). When the map outgrows the budget the level increments and
//     entries above the new threshold are dropped. The final level is
//     the smallest one whose tracked set fits the cap — a pure function
//     of the full distinct set, hence partition-invariant: a chunk can
//     only ever force a level <= the canonical final level (its tracked
//     set is a subset of the column's), and Merge() re-applies the rule.
//     Distinctness is estimated as tracked*2^level (the KMV estimator),
//     entropy/top-k/patterns are ratio estimates over the sample, and
//     min/max stay exact scalars.
//   * kAuto   — identical state evolution to kSketch; reported as exact
//     while the level is still 0 (the sample *is* the full map), sketch
//     after the first forced coarsening.
//
// ValueBloom is the companion membership sketch for constraint
// discovery: a fixed-size, OR-mergeable bloom filter whose subset test
// soundly prunes inclusion-dependency candidates (a definite miss means
// some child value cannot be in the parent; a "maybe" falls through to
// the exact validation pass, so discovery results are unchanged).

#ifndef EFES_PROFILING_SKETCH_H_
#define EFES_PROFILING_SKETCH_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "efes/common/result.h"
#include "efes/profiling/statistics.h"
#include "efes/relational/value.h"

namespace efes {

/// How a profile may trade accuracy for memory (DESIGN.md §16).
enum class ApproximationMode {
  kExact = 0,
  kSketch = 1,
  kAuto = 2,
};

/// Canonical lowercase name: "exact", "sketch", "auto".
std::string_view ApproximationModeToString(ApproximationMode mode);

/// Parses the canonical names; anything else is kInvalidArgument.
Result<ApproximationMode> ParseApproximationMode(std::string_view text);

/// Profiling knobs threaded through RunOptions and the --max-memory /
/// --approx CLI flags.
struct ProfileOptions {
  /// Rows per block of a streaming reader (ChunkedCsvReader, as `efes
  /// profile --chunk-rows` sets it); 0 reads the whole file as one block.
  /// Nothing else reads it: an in-memory column is one sketch whatever
  /// this says.
  size_t chunk_rows = 65536;
  /// Per-sketch memory budget in bytes; 0 = unlimited (kExact) or the
  /// built-in default sample budget (kSketch/kAuto).
  size_t max_memory_bytes = 0;
  ApproximationMode mode = ApproximationMode::kExact;
};

/// Default per-sketch sample budget for kSketch/kAuto when --max-memory
/// is not set (roughly a few thousand tracked values).
inline constexpr size_t kDefaultSketchMemoryBytes = 256 * 1024;

class StatisticsSketch {
 public:
  /// An exact, unbudgeted sketch against text (vector-resize default).
  StatisticsSketch() : StatisticsSketch(DataType::kText, ProfileOptions{}) {}

  StatisticsSketch(DataType target_type, const ProfileOptions& options);

  /// A sketch that infers its target type from the text cells it
  /// absorbs (see the file comment). It absorbs only NULL and text;
  /// Absorb fails with kInvalidArgument on any other value.
  static StatisticsSketch Inferring(const ProfileOptions& options);

  /// Absorbs one value. Fails with kResourceExhausted only in kExact
  /// mode with a --max-memory budget the frequency map outgrew.
  [[nodiscard]] Status Absorb(const Value& value);

  /// Absorb(Value::Text(std::string(text))), bit for bit.
  [[nodiscard]] Status AbsorbText(std::string_view text);

  /// Absorbs column[begin, end) — one streaming chunk.
  [[nodiscard]] Status AbsorbRange(const std::vector<Value>& column,
                                   size_t begin, size_t end);

  /// Folds `other` (same type/mode/budget) into this sketch. The result
  /// equals absorbing both multisets into one sketch, bit for bit.
  [[nodiscard]] Status Merge(const StatisticsSketch& other);

  /// Derives all applicable §5.1 statistics from the canonical state.
  AttributeStatistics Finalize() const;

  /// Approximate heap footprint of the tracked state, the quantity the
  /// --max-memory budget is compared against.
  size_t MemoryBytes() const;

  /// The type the statistics are evaluated against; for an Inferring
  /// sketch, the type its cells so far infer.
  DataType target_type() const;
  ApproximationMode requested_mode() const { return mode_; }
  /// kExact while every distinct value is still tracked (level 0),
  /// kSketch once coarsening dropped values — what provenance records.
  ApproximationMode effective_mode() const;
  uint32_t level() const { return level_; }
  size_t tracked_count() const { return tracked_.size(); }

 private:
  Status EnforceBudget();
  bool Tracks(uint64_t hash) const {
    return level_ == 0 || (hash >> (64 - level_)) == 0;
  }
  /// Counts a finite numeric reading into the exact scalars.
  void CountNumber(double number);
  /// Updates the inference flags (and scalars) of an Inferring sketch
  /// with one non-null cell.
  void Infer(std::string_view text);
  /// Counts one non-null text cell of a typed sketch: whether it casts
  /// to the target and, for a numeric target, its finite reading.
  void TypeText(std::string_view text);
  /// Zeroes the scalars once an Inferring sketch cannot be numeric.
  void DropNumbersUnlessReal();

  DataType target_type_ = DataType::kText;
  // Inferring sketches only: target_type_ is unused, and the flags say
  // whether every non-null cell so far parses as an integer / a real
  // (may_be_integer_ implies may_be_real_). Typed sketches keep both
  // flags set.
  bool inferring_ = false;
  bool may_be_integer_ = true;
  bool may_be_real_ = true;
  ApproximationMode mode_ = ApproximationMode::kExact;
  uint64_t cap_bytes_ = 0;  // 0 = unlimited
  uint32_t level_ = 0;
  uint64_t total_count_ = 0;
  uint64_t null_count_ = 0;
  uint64_t uncastable_count_ = 0;
  // Exact numeric scalars (numeric targets): survive coarsening, so
  // value ranges never degrade to the sample.
  uint64_t numeric_count_ = 0;
  double numeric_min_ = 0.0;
  double numeric_max_ = 0.0;
  // Value -> (exact occurrence count, content hash). The content hash
  // (FNV-1a over the typed value, cache/fingerprint.h) drives tracking
  // and is stored to make coarsening O(tracked). Transparent, so
  // AbsorbText probes it with the view.
  std::unordered_map<Value, std::pair<uint64_t, uint64_t>, ValueHash,
                     ValueEqual>
      tracked_;
  uint64_t tracked_bytes_ = 0;
};

/// Deterministic 64-bit content hash of a value (FNV-1a, the cache
/// fingerprint encoding) — the hash the sketch sample and ValueBloom
/// share, stable across runs and builds.
uint64_t SketchValueHash(const Value& value);

/// Fixed-size (4096-bit) bloom filter over value content hashes.
/// OR-mergeable and insertion-order free; ~512 bytes per column.
class ValueBloom {
 public:
  void Insert(const Value& value) { InsertHash(SketchValueHash(value)); }
  void InsertHash(uint64_t hash);

  /// False means the value is definitely absent.
  bool MightContain(const Value& value) const;

  /// False means some value inserted here is definitely *not* in
  /// `other` — sound pruning for "this column ⊆ that column".
  bool SubsetOf(const ValueBloom& other) const;

  void MergeFrom(const ValueBloom& other);

 private:
  static constexpr size_t kWords = 64;  // 4096 bits
  std::array<uint64_t, kWords> bits_{};
};

}  // namespace efes

#endif  // EFES_PROFILING_SKETCH_H_
