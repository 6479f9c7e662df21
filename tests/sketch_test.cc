// Property tests for the mergeable statistic sketches (DESIGN.md §16):
// the canonical-merge contract (any chunking, any merge order, any
// thread count — one Finalize() output, compared bit for bit), the
// differential test of the order-free Finalize against the sorted-value
// reference (tests/sketch_reference.h), the non-finite rule, accuracy
// bounds of the budget-degraded sketches against exact answers, the
// --max-memory semantics per approximation mode, and bloom-pruning
// soundness.

#include "efes/profiling/sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "efes/common/file_io.h"
#include "efes/common/parallel.h"
#include "efes/common/random.h"
#include "efes/common/string_util.h"
#include "efes/profiling/profiler.h"
#include "efes/profiling/statistics.h"
#include "efes/relational/value.h"
#include "efes/scenario/fuzzer.h"
#include "sketch_reference.h"

namespace efes {
namespace {

/// Cell `id` of a column whose cells have type `type`. Text renderings
/// vary in length; numbers include negatives.
Value CellFor(DataType type, uint64_t id) {
  switch (type) {
    case DataType::kBoolean:
      return Value::Boolean(id % 2 == 0);
    case DataType::kInteger:
      return Value::Integer(static_cast<int64_t>(id) * 37 - 500);
    case DataType::kReal:
      return Value::Real(static_cast<double>(id) * 0.37 - 12.5);
    case DataType::kText:
      return Value::Text("v" + std::to_string(id));
    case DataType::kNull:
      break;
  }
  return Value::Null();
}

/// A column of `type` cells drawing from `domain` distinct ids, ~5% null.
std::vector<Value> RandomColumn(Random& rng, DataType type, size_t n,
                                size_t domain) {
  std::vector<Value> column;
  column.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.05)) {
      column.push_back(Value::Null());
    } else {
      column.push_back(CellFor(type, rng.UniformUint64(domain)));
    }
  }
  return column;
}

/// Random chunk boundaries over [0, n): between 1 and ~12 chunks.
std::vector<std::pair<size_t, size_t>> RandomChunking(Random& rng, size_t n) {
  std::set<size_t> cuts = {0, n};
  const size_t extra = rng.UniformUint64(12);
  for (size_t i = 0; i < extra; ++i) cuts.insert(rng.UniformUint64(n));
  std::vector<std::pair<size_t, size_t>> chunks;
  for (auto it = cuts.begin(); std::next(it) != cuts.end(); ++it) {
    chunks.emplace_back(*it, *std::next(it));
  }
  return chunks;
}

ProfileOptions SketchOptions(size_t budget) {
  ProfileOptions options;
  options.mode = ApproximationMode::kSketch;
  options.max_memory_bytes = budget;
  return options;
}

/// Checks `actual` against `expected` within `tolerance`; a zero
/// tolerance demands the same bits (so 0.0 differs from -0.0).
void ExpectDouble(double actual, double expected, double tolerance,
                  const std::string& what) {
  if (tolerance == 0.0) {
    EXPECT_EQ(std::bit_cast<uint64_t>(actual),
              std::bit_cast<uint64_t>(expected))
        << what << ": " << actual << " vs " << expected;
  } else {
    EXPECT_NEAR(actual, expected, tolerance) << what;
  }
}

/// Same type, and for REAL the same bits, so NaN matches NaN.
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == DataType::kReal) {
    return std::bit_cast<uint64_t>(a.AsReal()) ==
           std::bit_cast<uint64_t>(b.AsReal());
  }
  return a == b;
}

/// Absolute tolerances per statistic family; zero means bit for bit.
/// `numeric` is scaled by the expected magnitude (at least 1).
struct Tolerances {
  double constancy = 0.0;
  double length = 0.0;
  double numeric = 0.0;
};

/// Compares every field of two statistics bundles.
void ExpectStatistics(const AttributeStatistics& actual,
                      const AttributeStatistics& expected,
                      const Tolerances& tolerances = {}) {
  const auto numeric = [&](double value) {
    return tolerances.numeric * std::max(1.0, std::abs(value));
  };
  EXPECT_EQ(actual.evaluated_against, expected.evaluated_against);
  EXPECT_EQ(actual.fill_status.total_count, expected.fill_status.total_count);
  EXPECT_EQ(actual.fill_status.null_count, expected.fill_status.null_count);
  EXPECT_EQ(actual.fill_status.uncastable_count,
            expected.fill_status.uncastable_count);

  EXPECT_EQ(actual.constancy.distinct_count, expected.constancy.distinct_count);
  EXPECT_EQ(actual.constancy.non_null_count, expected.constancy.non_null_count);
  ExpectDouble(actual.constancy.constancy, expected.constancy.constancy,
               tolerances.constancy, "constancy");

  ASSERT_EQ(actual.top_k.top_values.size(), expected.top_k.top_values.size());
  for (size_t i = 0; i < actual.top_k.top_values.size(); ++i) {
    const auto& [value, freq] = actual.top_k.top_values[i];
    const auto& [want_value, want_freq] = expected.top_k.top_values[i];
    EXPECT_TRUE(SameValue(value, want_value))
        << "top-k #" << i << ": " << value << " vs " << want_value;
    ExpectDouble(freq, want_freq, 0.0, "top-k frequency #" + std::to_string(i));
  }
  ExpectDouble(actual.top_k.coverage, expected.top_k.coverage, 0.0,
               "top-k coverage");

  ASSERT_EQ(actual.text_pattern.has_value(), expected.text_pattern.has_value());
  if (actual.text_pattern.has_value()) {
    const auto& patterns = actual.text_pattern->patterns;
    const auto& want = expected.text_pattern->patterns;
    ASSERT_EQ(patterns.size(), want.size());
    for (size_t i = 0; i < patterns.size(); ++i) {
      EXPECT_EQ(patterns[i].first, want[i].first);
      ExpectDouble(patterns[i].second, want[i].second, 0.0,
                   "pattern " + want[i].first);
    }
  }
  ASSERT_EQ(actual.char_histogram.has_value(),
            expected.char_histogram.has_value());
  if (actual.char_histogram.has_value()) {
    const auto& frequencies = actual.char_histogram->frequencies;
    const auto& want = expected.char_histogram->frequencies;
    ASSERT_EQ(frequencies.size(), want.size());
    for (auto it = frequencies.begin(), wit = want.begin();
         it != frequencies.end(); ++it, ++wit) {
      EXPECT_EQ(it->first, wit->first);
      ExpectDouble(it->second, wit->second, 0.0,
                   std::string("char '") + wit->first + "'");
    }
  }
  ASSERT_EQ(actual.string_length.has_value(),
            expected.string_length.has_value());
  if (actual.string_length.has_value()) {
    ExpectDouble(actual.string_length->mean, expected.string_length->mean,
                 tolerances.length, "string length mean");
    ExpectDouble(actual.string_length->stddev, expected.string_length->stddev,
                 tolerances.length, "string length stddev");
  }

  ASSERT_EQ(actual.mean.has_value(), expected.mean.has_value());
  if (actual.mean.has_value()) {
    ExpectDouble(actual.mean->mean, expected.mean->mean,
                 numeric(expected.mean->mean), "mean");
    ExpectDouble(actual.mean->stddev, expected.mean->stddev,
                 numeric(expected.mean->stddev), "stddev");
  }
  ASSERT_EQ(actual.value_range.has_value(), expected.value_range.has_value());
  if (actual.value_range.has_value()) {
    ExpectDouble(actual.value_range->min, expected.value_range->min, 0.0,
                 "range min");
    ExpectDouble(actual.value_range->max, expected.value_range->max, 0.0,
                 "range max");
  }
  ASSERT_EQ(actual.histogram.has_value(), expected.histogram.has_value());
  if (actual.histogram.has_value()) {
    ExpectDouble(actual.histogram->min, expected.histogram->min, 0.0,
                 "histogram min");
    ExpectDouble(actual.histogram->max, expected.histogram->max, 0.0,
                 "histogram max");
    const auto& buckets = actual.histogram->bucket_fractions;
    const auto& want = expected.histogram->bucket_fractions;
    ASSERT_EQ(buckets.size(), want.size());
    for (size_t i = 0; i < buckets.size(); ++i) {
      ExpectDouble(buckets[i], want[i], tolerances.numeric,
                   "bucket " + std::to_string(i));
    }
  }
}

/// The concrete types: of the merge-property columns, each profiled
/// against its own type, and of the differential tests' targets.
constexpr DataType kCellTypes[] = {DataType::kText, DataType::kInteger,
                                   DataType::kReal, DataType::kBoolean};

/// The cells as a CSV holds them: each non-null value's text.
std::vector<Value> AsCsvCells(const std::vector<Value>& column) {
  std::vector<Value> cells;
  cells.reserve(column.size());
  for (const Value& value : column) {
    cells.push_back(value.is_null() ? Value::Null()
                                    : Value::Text(value.ToString()));
  }
  return cells;
}

TEST(SketchMergeProperty, AnyChunkingAndMergeOrderFinalizesIdentically) {
  // The canonical-merge contract, stated adversarially: split the column
  // anywhere, build per-chunk partials, fold them in a *random* order —
  // Finalize() must still equal the single-pass absorb bit for bit,
  // exact mode and budget-degraded sketch mode alike. Each typed column
  // also goes, as CSV text, through an inferring sketch, whose type
  // flags merge like the rest of the state.
  const ProfileOptions kModes[] = {ProfileOptions{}, SketchOptions(16384)};
  for (const DataType type : kCellTypes) {
    for (const bool inferring : {false, true}) {
      SCOPED_TRACE(std::string("type ") +
                   std::string(DataTypeToString(type)) +
                   (inferring ? " as text, inferring" : ""));
      for (uint64_t seed = 1; seed <= 5; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Random data_rng(seed);
        std::vector<Value> column = RandomColumn(data_rng, type, 5000, 1500);
        if (inferring) column = AsCsvCells(column);
        for (const ProfileOptions& options : kModes) {
          SCOPED_TRACE(std::string("mode ") +
                       std::string(ApproximationModeToString(options.mode)));
          const auto make = [&] {
            return inferring ? StatisticsSketch::Inferring(options)
                             : StatisticsSketch(type, options);
          };
          StatisticsSketch reference = make();
          ASSERT_TRUE(reference.AbsorbRange(column, 0, column.size()).ok());
          const AttributeStatistics expected = reference.Finalize();

          Random shape_rng(seed * 1000 + 7);
          for (int round = 0; round < 8; ++round) {
            SCOPED_TRACE("round " + std::to_string(round));
            auto chunks = RandomChunking(shape_rng, column.size());
            std::vector<StatisticsSketch> partials;
            for (const auto& [lo, hi] : chunks) {
              StatisticsSketch partial = make();
              ASSERT_TRUE(partial.AbsorbRange(column, lo, hi).ok());
              partials.push_back(std::move(partial));
            }
            std::vector<size_t> order(partials.size());
            std::iota(order.begin(), order.end(), size_t{0});
            shape_rng.Shuffle(order);
            StatisticsSketch merged = make();
            for (size_t index : order) {
              ASSERT_TRUE(merged.Merge(partials[index]).ok());
            }
            EXPECT_EQ(merged.target_type(), reference.target_type());
            ExpectStatistics(merged.Finalize(), expected);
          }
        }
      }
    }
  }
}

TEST(SketchMergeProperty, ProfileColumnIsChunkAndThreadInvariant) {
  for (const DataType type : kCellTypes) {
    SCOPED_TRACE(std::string("type ") + std::string(DataTypeToString(type)));
    Random rng(42);
    const std::vector<Value> column = RandomColumn(rng, type, 20000, 6000);
    for (const ProfileOptions& base :
         {ProfileOptions{}, SketchOptions(16384)}) {
      SCOPED_TRACE(std::string("mode ") +
                   std::string(ApproximationModeToString(base.mode)));
      std::optional<AttributeStatistics> expected;
      for (size_t chunk_rows : {size_t{0}, size_t{37}, size_t{512},
                                size_t{4096}}) {
        for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
          SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows) +
                       " threads=" + std::to_string(threads));
          SetThreadCountOverride(threads);
          ProfileOptions options = base;
          options.chunk_rows = chunk_rows;
          auto profiled = ProfileColumn(column, type, options);
          SetThreadCountOverride(0);
          ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
          if (!expected.has_value()) {
            expected = *profiled;
          } else {
            ExpectStatistics(*profiled, *expected);
          }
        }
      }
    }
  }
}

TEST(SketchMergeProperty, NonFiniteCellsStayOutOfRangeMomentsAndBuckets) {
  // A REAL column as the loader types `5, 2, nan, 1, inf`: strtod reads
  // NaN and infinity. Wherever a chunk starts, the range, the moments
  // and the buckets see only the finite cells, while the non-finite ones
  // still count as values. Every chunking must finalize bit-identically.
  std::vector<Value> column;
  for (const char* cell : {"5", "2", "nan", "1", "inf"}) {
    Result<Value> typed = Value::CastText(cell, DataType::kReal);
    ASSERT_TRUE(typed.ok()) << cell;
    column.push_back(*typed);
  }
  StatisticsSketch single(DataType::kReal, ProfileOptions{});
  ASSERT_TRUE(single.AbsorbRange(column, 0, column.size()).ok());
  const AttributeStatistics expected = single.Finalize();

  ASSERT_TRUE(expected.value_range.has_value());
  EXPECT_EQ(expected.value_range->min, 1.0);
  EXPECT_EQ(expected.value_range->max, 5.0);
  ASSERT_TRUE(expected.mean.has_value());
  EXPECT_DOUBLE_EQ(expected.mean->mean, 8.0 / 3.0);
  EXPECT_TRUE(std::isfinite(expected.mean->stddev));
  ASSERT_TRUE(expected.histogram.has_value());
  EXPECT_DOUBLE_EQ(std::accumulate(expected.histogram->bucket_fractions.begin(),
                                   expected.histogram->bucket_fractions.end(),
                                   0.0),
                   1.0);
  EXPECT_EQ(expected.fill_status.uncastable_count, 0u);
  EXPECT_EQ(expected.constancy.distinct_count, 5u);
  ASSERT_EQ(expected.top_k.top_values.size(), 5u);
  EXPECT_TRUE(std::isinf(expected.top_k.top_values[3].first.AsReal()));
  EXPECT_TRUE(std::isnan(expected.top_k.top_values[4].first.AsReal()))
      << "the tie-break ranks NaN after every number";

  // Every split of the five cells into contiguous chunks, folded
  // forwards and backwards.
  const size_t n = column.size();
  for (uint32_t cuts = 0; cuts < (1u << (n - 1)); ++cuts) {
    std::vector<StatisticsSketch> partials;
    size_t lo = 0;
    for (size_t i = 1; i <= n; ++i) {
      if (i == n || (cuts & (1u << (i - 1))) != 0) {
        StatisticsSketch partial(DataType::kReal, ProfileOptions{});
        ASSERT_TRUE(partial.AbsorbRange(column, lo, i).ok());
        partials.push_back(std::move(partial));
        lo = i;
      }
    }
    for (bool reverse : {false, true}) {
      SCOPED_TRACE("cuts=" + std::to_string(cuts) +
                   (reverse ? " reversed" : ""));
      if (reverse) std::reverse(partials.begin(), partials.end());
      StatisticsSketch merged(DataType::kReal, ProfileOptions{});
      for (const StatisticsSketch& partial : partials) {
        ASSERT_TRUE(merged.Merge(partial).ok());
      }
      ExpectStatistics(merged.Finalize(), expected);
    }
  }
  for (size_t chunk_rows = 1; chunk_rows <= n; ++chunk_rows) {
    ProfileOptions options;
    options.chunk_rows = chunk_rows;
    auto profiled = ProfileColumn(column, DataType::kReal, options);
    ASSERT_TRUE(profiled.ok());
    SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows));
    ExpectStatistics(*profiled, expected);
  }
}

// --- Differential test against the sorted-value reference ------------------

/// How a synthetic column draws its cell ids.
enum class Shape { kRandom, kAllDistinct, kSingleValued, kSkewed };

/// Text cells of which some parse as numbers and some do not. The ids
/// 4k+1 and 4k+2 read as the same number through different texts.
Value NumericTextCell(uint64_t id) {
  switch (id % 4) {
    case 0:
      return Value::Text("x" + std::to_string(id));
    case 1:
      return Value::Text(std::to_string(id));
    case 2:
      return Value::Text(std::to_string(id - 1) + ".0");
    default:
      return Value::Text(" " + std::to_string(id) + "e-1");
  }
}

/// A synthetic column: `n` cells of `type` (kNull here means numeric
/// text), every 17th cell null, ids drawn by `shape`.
std::vector<Value> ShapedColumn(DataType type, Shape shape, size_t n,
                                uint64_t seed) {
  Random rng(seed);
  std::vector<Value> column;
  column.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i % 17 == 16) {
      column.push_back(Value::Null());
      continue;
    }
    uint64_t id = 0;
    switch (shape) {
      case Shape::kRandom:
        id = rng.UniformUint64(n / 3 + 1);
        break;
      case Shape::kAllDistinct:
        id = i;
        break;
      case Shape::kSingleValued:
        id = 7;
        break;
      case Shape::kSkewed:  // small ids far more often than large ones
        id = rng.UniformUint64(rng.UniformUint64(n / 2 + 1) + 1);
        break;
    }
    column.push_back(type == DataType::kNull ? NumericTextCell(id)
                                             : CellFor(type, id));
  }
  return column;
}

/// Profiles `column` against `target` through ProfileColumn, whole and
/// in chunks, and checks both against the reference: exact for counts,
/// top-k, patterns, characters and range; bit-exact moments and buckets
/// when every value is a number; constancy and length moments within
/// 1e-12, and exactly 0 constancy for an all-distinct column.
void ExpectMatchesReference(const std::vector<Value>& column,
                            DataType target) {
  const AttributeStatistics expected = ReferenceStatistics(column, target);
  bool numbers_only = true;
  for (const Value& value : column) {
    if (!value.is_null() && value.type() != DataType::kInteger &&
        value.type() != DataType::kReal) {
      numbers_only = false;
    }
  }
  Tolerances tolerances;
  tolerances.constancy = 1e-12;
  tolerances.length = 1e-12;
  tolerances.numeric = numbers_only ? 0.0 : 1e-12;
  for (size_t chunk_rows : {size_t{0}, size_t{1000}}) {
    SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows));
    ProfileOptions options;
    options.chunk_rows = chunk_rows;
    auto profiled = ProfileColumn(column, target, options);
    ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
    ExpectStatistics(*profiled, expected, tolerances);
    const ConstancyStats& constancy = profiled->constancy;
    if (constancy.non_null_count > 1 &&
        constancy.distinct_count == constancy.non_null_count) {
      EXPECT_EQ(constancy.constancy, 0.0) << "all-distinct residue";
    }
  }
}

TEST(SketchDifferential, MatchesSortedReferenceOnSyntheticColumns) {
  // kNull stands for text cells that are partly numeric.
  const DataType kCells[] = {DataType::kText, DataType::kInteger,
                             DataType::kReal, DataType::kBoolean,
                             DataType::kNull};
  const Shape kShapes[] = {Shape::kRandom, Shape::kAllDistinct,
                           Shape::kSingleValued, Shape::kSkewed};
  // 52 cells hold 49 non-null values: summing -p*log2(p) once per value
  // leaves a constancy residue there for an all-distinct column.
  const size_t kSizes[] = {0, 1, 2, 52, 1000, 20000};
  uint64_t seed = 0;
  for (const DataType cells : kCells) {
    for (const Shape shape : kShapes) {
      for (const size_t n : kSizes) {
        const std::vector<Value> column = ShapedColumn(cells, shape, n, ++seed);
        for (const DataType target : kCellTypes) {
          SCOPED_TRACE(std::string("cells ") +
                       std::string(DataTypeToString(cells)) + " shape " +
                       std::to_string(static_cast<int>(shape)) + " n " +
                       std::to_string(n) + " target " +
                       std::string(DataTypeToString(target)));
          ExpectMatchesReference(column, target);
        }
      }
    }
  }
}

TEST(SketchDifferential, MatchesSortedReferenceOnFuzzCorpusColumns) {
  Result<std::string> text =
      ReadFileToString(std::string(EFES_SOURCE_DIR) + "/data/fuzz_corpus.txt");
  ASSERT_TRUE(text.ok()) << text.status();
  size_t seeds = 0;
  for (const std::string& raw_line : Split(*text, '\n')) {
    const std::string line(Trim(raw_line.substr(0, raw_line.find('#'))));
    if (line.empty()) continue;
    std::optional<int64_t> seed = ParseInt64(line);
    ASSERT_TRUE(seed.has_value()) << "bad corpus line: " << line;
    auto fuzzed = FuzzScenario(static_cast<uint64_t>(*seed));
    ASSERT_TRUE(fuzzed.ok()) << "seed " << line;
    for (const SourceBinding& source : fuzzed->scenario.sources) {
      for (const Table& table : source.database.tables()) {
        for (size_t c = 0; c < table.column_count(); ++c) {
          for (const DataType target : kCellTypes) {
            SCOPED_TRACE("seed " + line + " " + table.name() + " column " +
                         std::to_string(c) + " target " +
                         std::string(DataTypeToString(target)));
            ExpectMatchesReference(table.column(c), target);
          }
        }
      }
    }
    ++seeds;
  }
  EXPECT_GE(seeds, 50u);
}

// --- Type inference against the two-pass profile ---------------------------

/// Absorbs CSV cells the way `efes profile` does: NULL for an empty
/// cell, the text view otherwise.
Status AbsorbCells(StatisticsSketch& sketch, const std::vector<Value>& cells,
                   size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    EFES_RETURN_IF_ERROR(cells[i].is_null()
                             ? sketch.Absorb(cells[i])
                             : sketch.AbsorbText(cells[i].AsText()));
  }
  return Status::OK();
}

/// A named column of CSV cells and the type the two-pass rule gives it.
struct InferenceCase {
  std::string name;
  std::vector<Value> cells;
  DataType type;
};

std::vector<InferenceCase> InferenceCases() {
  std::vector<InferenceCase> cases;
  Random rng(2024);
  cases.push_back({"integers",
                   AsCsvCells(RandomColumn(rng, DataType::kInteger, 3000, 900)),
                   DataType::kInteger});
  cases.push_back({"reals",
                   AsCsvCells(RandomColumn(rng, DataType::kReal, 3000, 900)),
                   DataType::kReal});
  cases.push_back({"words",
                   AsCsvCells(RandomColumn(rng, DataType::kText, 3000, 900)),
                   DataType::kText});
  std::vector<Value> mixed;
  for (uint64_t id = 0; id < 3000; ++id) {
    mixed.push_back(id % 13 == 5 ? Value::Null()
                                 : NumericTextCell(rng.UniformUint64(700)));
  }
  cases.push_back({"mixed text", std::move(mixed), DataType::kText});
  // One edge cell among integers, placed first, in the middle, and last,
  // so it lands in every position of a chunking.
  const std::pair<const char*, DataType> kEdges[] = {
      {"-0", DataType::kInteger},
      {"+4", DataType::kInteger},
      {" 5 ", DataType::kInteger},
      {"1e3", DataType::kReal},
      {"0x10", DataType::kReal},
      {"nan", DataType::kReal},
      {"inf", DataType::kReal},
      {"1e999", DataType::kText},  // ERANGE: not a double
      {"9223372036854775808", DataType::kReal},  // not an int64
  };
  for (const auto& [edge, type] : kEdges) {
    std::vector<Value> cells;
    for (int i = 0; i < 40; ++i) {
      if (i == 0 || i == 20 || i == 39) {
        cells.push_back(Value::Text(edge));
      } else if (i % 9 == 4) {
        cells.push_back(Value::Null());
      } else {
        cells.push_back(Value::Text(std::to_string(i * 7 - 100)));
      }
    }
    cases.push_back({std::string("edge '") + edge + "'", std::move(cells),
                     type});
  }
  cases.push_back({"all null", std::vector<Value>(50, Value::Null()),
                   DataType::kText});
  cases.push_back({"empty", {}, DataType::kText});
  std::vector<Value> late_text =
      AsCsvCells(RandomColumn(rng, DataType::kReal, 2000, 500));
  late_text.push_back(Value::Text("n/a"));
  cases.push_back({"numbers, one text cell last", std::move(late_text),
                   DataType::kText});
  return cases;
}

TEST(SketchInference, MatchesTheTwoPassProfile) {
  // The inferring sketch must type each column as pass 1 of the old
  // two-pass `efes profile` did, and finalize bit for bit as pass 2's
  // typed sketch, at any chunking and merge order, with and without a
  // budget tight enough to coarsen.
  for (const InferenceCase& c : InferenceCases()) {
    SCOPED_TRACE(c.name);
    ASSERT_EQ(TwoPassType(c.cells), c.type);
    for (const ProfileOptions& options :
         {ProfileOptions{}, SketchOptions(2048)}) {
      SCOPED_TRACE(std::string("mode ") +
                   std::string(ApproximationModeToString(options.mode)));
      auto expected = TwoPassStatistics(c.cells, options);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      for (size_t chunk_rows : {size_t{0}, size_t{1}, size_t{7},
                                size_t{1000}}) {
        const size_t step = chunk_rows == 0
                                ? std::max<size_t>(c.cells.size(), 1)
                                : chunk_rows;
        std::vector<StatisticsSketch> partials;
        for (size_t lo = 0; lo < c.cells.size(); lo += step) {
          StatisticsSketch partial = StatisticsSketch::Inferring(options);
          ASSERT_TRUE(AbsorbCells(partial, c.cells, lo,
                                  std::min(lo + step, c.cells.size()))
                          .ok());
          partials.push_back(std::move(partial));
        }
        for (bool reverse : {false, true}) {
          SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows) +
                       (reverse ? " backwards" : " forwards"));
          if (reverse) std::reverse(partials.begin(), partials.end());
          StatisticsSketch merged = StatisticsSketch::Inferring(options);
          for (const StatisticsSketch& partial : partials) {
            ASSERT_TRUE(merged.Merge(partial).ok());
          }
          EXPECT_EQ(merged.target_type(), c.type);
          ExpectStatistics(merged.Finalize(), *expected);
        }
      }
    }
  }
}

TEST(SketchInference, AbsorbsOnlyTextAndNull) {
  StatisticsSketch sketch = StatisticsSketch::Inferring(ProfileOptions{});
  EXPECT_EQ(sketch.Absorb(Value::Integer(3)).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(sketch.Absorb(Value::Null()).ok());
  ASSERT_TRUE(sketch.Absorb(Value::Text("3")).ok());
  EXPECT_EQ(sketch.target_type(), DataType::kInteger);
  StatisticsSketch typed(DataType::kInteger, ProfileOptions{});
  EXPECT_EQ(sketch.Merge(typed).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(typed.Merge(sketch).code(), StatusCode::kInvalidArgument);
}

TEST(SketchInference, AbsorbTextEqualsAbsorbingTheTextValue) {
  // AbsorbText(s) is Absorb(Value::Text(s)) on a typed sketch of every
  // target: the same casts, numbers, tracked entries, sample hashes and
  // budget arithmetic, so the same Finalize and the same overflow.
  for (const std::string& s : {std::string("abc"), std::string(""),
                               std::string(40, 'x')}) {
    EXPECT_EQ(ValueHash()(std::string_view(s)), Value::Text(s).Hash());
    EXPECT_TRUE(ValueEqual()(Value::Text(s), std::string_view(s)));
  }
  EXPECT_FALSE(ValueEqual()(Value::Integer(3), std::string_view("3")));

  std::vector<Value> cells;
  Random rng(31);
  const char* kSpecial[] = {"true", "FALSE", "0", "1", "-0", " 5 ", "1e3",
                            "nan", "inf", "1e999", "", "x y"};
  for (int i = 0; i < 6000; ++i) {
    switch (i % 4) {
      case 0:
        cells.push_back(NumericTextCell(rng.UniformUint64(2000)));
        break;
      case 1:
        cells.push_back(Value::Text(kSpecial[rng.UniformUint64(12)]));
        break;
      case 2:
        cells.push_back(rng.Bernoulli(0.2) ? Value::Null()
                                           : Value::Text(rng.Word(1, 9)));
        break;
      default:
        cells.push_back(Value::Text("id-" + std::to_string(i)));
        break;
    }
  }
  ProfileOptions auto_budget = SketchOptions(4096);
  auto_budget.mode = ApproximationMode::kAuto;
  for (const DataType target : kCellTypes) {
    for (const ProfileOptions& options :
         {ProfileOptions{}, SketchOptions(2048), auto_budget}) {
      SCOPED_TRACE(std::string(DataTypeToString(target)) + " " +
                   std::string(ApproximationModeToString(options.mode)));
      StatisticsSketch by_value(target, options);
      StatisticsSketch by_view(target, options);
      ASSERT_TRUE(by_value.AbsorbRange(cells, 0, cells.size()).ok());
      ASSERT_TRUE(AbsorbCells(by_view, cells, 0, cells.size()).ok());
      EXPECT_EQ(by_view.level(), by_value.level());
      EXPECT_EQ(by_view.tracked_count(), by_value.tracked_count());
      EXPECT_EQ(by_view.MemoryBytes(), by_value.MemoryBytes());
      ExpectStatistics(by_view.Finalize(), by_value.Finalize());
    }
    // An exact budget overflows on the same cell with the same message.
    ProfileOptions exact;
    exact.max_memory_bytes = 8192;
    StatisticsSketch by_value(target, exact);
    StatisticsSketch by_view(target, exact);
    Status value_status;
    Status view_status;
    size_t value_at = 0;
    size_t view_at = 0;
    for (; value_at < cells.size() && value_status.ok(); ++value_at) {
      value_status = by_value.Absorb(cells[value_at]);
    }
    for (; view_at < cells.size() && view_status.ok(); ++view_at) {
      view_status = AbsorbCells(by_view, cells, view_at, view_at + 1);
    }
    ASSERT_EQ(value_status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(view_at, value_at);
    EXPECT_EQ(view_status.message(), value_status.message());
  }
}

TEST(SketchAccuracy, DistinctEstimateIsWithinRelativeBound) {
  // KMV-style hash-threshold sampling: with a 16 KiB budget on a
  // 15000-distinct column the sketch must coarsen, and the scaled
  // distinct estimate stays within 30% of the truth on every seed.
  for (uint64_t seed = 10; seed < 15; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed);
    const std::vector<Value> column =
        RandomColumn(rng, DataType::kText, 40000, 15000);
    std::set<std::string> distinct;
    for (const Value& value : column) {
      if (!value.is_null()) distinct.insert(value.AsText());
    }

    StatisticsSketch sketch(DataType::kText, SketchOptions(16384));
    ASSERT_TRUE(sketch.AbsorbRange(column, 0, column.size()).ok());
    ASSERT_EQ(sketch.effective_mode(), ApproximationMode::kSketch)
        << "budget did not force coarsening; the bound below is vacuous";
    EXPECT_LE(sketch.MemoryBytes(), 16384u);

    const AttributeStatistics stats = sketch.Finalize();
    const double exact = static_cast<double>(distinct.size());
    const double estimate =
        static_cast<double>(stats.constancy.distinct_count);
    EXPECT_LE(std::abs(estimate - exact) / exact, 0.30)
        << "estimate " << estimate << " vs exact " << exact;
  }
}

TEST(SketchAccuracy, SurvivingTopKFrequenciesAreExact) {
  // Coarsening drops values, never miscounts them: any value the sketch
  // still reports in its top-k carries its true relative frequency.
  Random rng(77);
  std::vector<Value> column;
  for (int hot = 0; hot < 5; ++hot) {
    for (int i = 0; i < 2000; ++i) {
      column.push_back(Value::Text("hot" + std::to_string(hot)));
    }
  }
  for (int i = 0; i < 20000; ++i) {
    column.push_back(
        Value::Text("rare" + std::to_string(rng.UniformUint64(1u << 30))));
  }
  rng.Shuffle(column);

  std::map<std::string, uint64_t> exact_counts;
  for (const Value& value : column) ++exact_counts[value.AsText()];

  StatisticsSketch sketch(DataType::kText, SketchOptions(16384));
  ASSERT_TRUE(sketch.AbsorbRange(column, 0, column.size()).ok());
  ASSERT_EQ(sketch.effective_mode(), ApproximationMode::kSketch);
  const AttributeStatistics stats = sketch.Finalize();
  ASSERT_FALSE(stats.top_k.top_values.empty());
  for (const auto& [value, freq] : stats.top_k.top_values) {
    const auto it = exact_counts.find(value.AsText());
    ASSERT_NE(it, exact_counts.end());
    const double exact_freq =
        static_cast<double>(it->second) / static_cast<double>(column.size());
    EXPECT_NEAR(freq, exact_freq, 1e-9) << value.AsText();
  }
}

TEST(SketchBudget, ExactModeFailsWhereSketchAndAutoDegrade) {
  Random rng(5);
  const std::vector<Value> column =
      RandomColumn(rng, DataType::kText, 30000, 20000);

  ProfileOptions exact;
  exact.mode = ApproximationMode::kExact;
  exact.max_memory_bytes = 16384;
  auto failed = ProfileColumn(column, DataType::kText, exact);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);

  ProfileOptions sketch = exact;
  sketch.mode = ApproximationMode::kSketch;
  auto degraded = ProfileColumn(column, DataType::kText, sketch);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();

  // kAuto is "exact until the budget bites": under the same pressure it
  // must degrade to byte-identical sketch output, not fail.
  ProfileOptions fallback = exact;
  fallback.mode = ApproximationMode::kAuto;
  auto automatic = ProfileColumn(column, DataType::kText, fallback);
  ASSERT_TRUE(automatic.ok()) << automatic.status().ToString();
  EXPECT_EQ(automatic->ToString(), degraded->ToString());

  // An unlimited exact profile of the same column still succeeds and
  // reports the true distinct count.
  std::set<std::string> distinct;
  for (const Value& value : column) {
    if (!value.is_null()) distinct.insert(value.AsText());
  }
  auto unlimited = ProfileColumn(column, DataType::kText);
  ASSERT_TRUE(unlimited.ok());
  EXPECT_EQ(unlimited->constancy.distinct_count, distinct.size());
}

TEST(SketchBudget, OverlappingOptionScopesMayEndInAnyOrder) {
  // Two concurrent runs profile under their own budgets, their calls
  // overlapping in any order. Each call takes its options as an
  // argument, so every refusal names its own run's budget.
  Random rng(11);
  const std::vector<Value> column =
      RandomColumn(rng, DataType::kText, 2000, 1000);
  std::latch start(2);
  auto profile_under = [&](size_t budget, std::string* mismatch) {
    ProfileOptions options;
    options.mode = ApproximationMode::kExact;
    options.max_memory_bytes = budget;
    const std::string expected =
        "budget is " + std::to_string(budget) + " bytes";
    start.arrive_and_wait();
    for (int call = 0; call < 2000; ++call) {
      auto profiled = ProfileColumn(column, DataType::kText, options);
      if (profiled.ok() ||
          profiled.status().message().find(expected) == std::string::npos) {
        *mismatch = profiled.ok() ? "profiled within the budget"
                                  : profiled.status().ToString();
        return;
      }
    }
  };
  std::string first_mismatch;
  std::string second_mismatch;
  std::thread first(profile_under, 111, &first_mismatch);
  std::thread second(profile_under, 222, &second_mismatch);
  first.join();
  second.join();
  EXPECT_EQ(first_mismatch, "");
  EXPECT_EQ(second_mismatch, "");
}

TEST(ValueBloomTest, SubsetPruningIsSound) {
  // SubsetOf may only prune when the answer is *definitely* no: a true
  // subset must never be pruned, whatever the insertion order.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed * 31);
    std::vector<Value> small;
    for (int i = 0; i < 300; ++i) {
      small.push_back(Value::Text(rng.Word(4, 10)));
    }
    ValueBloom subset;
    ValueBloom superset;
    for (const Value& value : small) {
      subset.Insert(value);
      superset.Insert(value);
    }
    for (int i = 0; i < 200; ++i) {
      superset.Insert(Value::Text("extra-" + std::to_string(i)));
    }
    EXPECT_TRUE(subset.SubsetOf(superset));
    for (const Value& value : small) {
      EXPECT_TRUE(superset.MightContain(value));
    }

    // A disjoint 500-value set against a 300-value filter: at 4096 bits
    // the all-false-positive event is astronomically unlikely, and with
    // fixed seeds this stays deterministic.
    ValueBloom disjoint;
    for (int i = 0; i < 500; ++i) {
      disjoint.Insert(Value::Text("other-" + std::to_string(i) + "-" +
                                  std::to_string(seed)));
    }
    EXPECT_FALSE(disjoint.SubsetOf(subset));

    // OR-merge equals inserting both value sets into one filter.
    ValueBloom merged = subset;
    merged.MergeFrom(disjoint);
    EXPECT_TRUE(subset.SubsetOf(merged));
    EXPECT_TRUE(disjoint.SubsetOf(merged));
  }
}

}  // namespace
}  // namespace efes
