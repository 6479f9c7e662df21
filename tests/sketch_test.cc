// Property tests for the mergeable statistic sketches (DESIGN.md §16):
// the canonical-merge contract (any chunking, any merge order, any
// thread count — one Finalize() output), accuracy bounds of the
// budget-degraded sketches against exact answers, the --max-memory
// semantics per approximation mode, bloom-pruning soundness, and the
// cache-persistence state roundtrip.

#include "efes/profiling/sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "efes/common/parallel.h"
#include "efes/common/random.h"
#include "efes/profiling/profiler.h"
#include "efes/profiling/statistics.h"
#include "efes/relational/value.h"

namespace efes {
namespace {

/// A text column drawing from `domain` distinct values, ~5% null.
std::vector<Value> TextColumn(Random& rng, size_t n, size_t domain) {
  std::vector<Value> column;
  column.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.05)) {
      column.push_back(Value::Null());
    } else {
      column.push_back(
          Value::Text("v" + std::to_string(rng.UniformUint64(domain))));
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

TEST(SketchMergeProperty, AnyChunkingAndMergeOrderFinalizesIdentically) {
  // The canonical-merge contract, stated adversarially: split the column
  // anywhere, build per-chunk partials, fold them in a *random* order —
  // Finalize() must still equal the single-pass absorb, exact mode and
  // budget-degraded sketch mode alike.
  const ProfileOptions kModes[] = {ProfileOptions{}, SketchOptions(16384)};
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random data_rng(seed);
    const std::vector<Value> column = TextColumn(data_rng, 5000, 1500);
    for (const ProfileOptions& options : kModes) {
      SCOPED_TRACE(std::string("mode ") +
                   std::string(ApproximationModeToString(options.mode)));
      StatisticsSketch reference(DataType::kText, options);
      ASSERT_TRUE(reference.AbsorbRange(column, 0, column.size()).ok());
      const std::string expected = reference.Finalize().ToString();

      Random shape_rng(seed * 1000 + 7);
      for (int round = 0; round < 8; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        auto chunks = RandomChunking(shape_rng, column.size());
        std::vector<StatisticsSketch> partials;
        for (const auto& [lo, hi] : chunks) {
          StatisticsSketch partial(DataType::kText, options);
          ASSERT_TRUE(partial.AbsorbRange(column, lo, hi).ok());
          partials.push_back(std::move(partial));
        }
        std::vector<size_t> order(partials.size());
        std::iota(order.begin(), order.end(), size_t{0});
        shape_rng.Shuffle(order);
        StatisticsSketch merged(DataType::kText, options);
        for (size_t index : order) {
          ASSERT_TRUE(merged.Merge(partials[index]).ok());
        }
        EXPECT_EQ(merged.Finalize().ToString(), expected);
      }
    }
  }
}

TEST(SketchMergeProperty, ProfileColumnIsChunkAndThreadInvariant) {
  Random rng(42);
  const std::vector<Value> column = TextColumn(rng, 20000, 6000);
  for (const ProfileOptions& base :
       {ProfileOptions{}, SketchOptions(16384)}) {
    SCOPED_TRACE(std::string("mode ") +
                 std::string(ApproximationModeToString(base.mode)));
    std::string expected;
    for (size_t chunk_rows : {size_t{0}, size_t{37}, size_t{512},
                              size_t{4096}}) {
      for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows) +
                     " threads=" + std::to_string(threads));
        SetThreadCountOverride(threads);
        ProfileOptions options = base;
        options.chunk_rows = chunk_rows;
        auto profiled = ProfileColumn(column, DataType::kText, options);
        SetThreadCountOverride(0);
        ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
        const std::string rendered = profiled->ToString();
        if (expected.empty()) {
          expected = rendered;
        } else {
          EXPECT_EQ(rendered, expected);
        }
      }
    }
  }
}

TEST(SketchAccuracy, DistinctEstimateIsWithinRelativeBound) {
  // KMV-style hash-threshold sampling: with a 16 KiB budget on a
  // 15000-distinct column the sketch must coarsen, and the scaled
  // distinct estimate stays within 30% of the truth on every seed.
  for (uint64_t seed = 10; seed < 15; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed);
    const std::vector<Value> column = TextColumn(rng, 40000, 15000);
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
  const std::vector<Value> column = TextColumn(rng, 30000, 20000);

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
  // Two concurrent server runs: A installs, B installs, A ends, B ends.
  // The ambient options must never point at A's destroyed copy.
  ProfileOptions a;
  a.max_memory_bytes = 111;
  ProfileOptions b;
  b.max_memory_bytes = 222;
  auto first = std::make_unique<ScopedProfileOptions>(a);
  auto second = std::make_unique<ScopedProfileOptions>(b);
  EXPECT_EQ(ActiveProfileOptions().max_memory_bytes, 222u);
  first.reset();
  EXPECT_EQ(ActiveProfileOptions().max_memory_bytes, 222u);
  second.reset();
  EXPECT_EQ(ActiveProfileOptions().max_memory_bytes, 0u);
  {
    ScopedProfileOptions outer(a);
    {
      ScopedProfileOptions inner(b);
      EXPECT_EQ(ActiveProfileOptions().max_memory_bytes, 222u);
    }
    EXPECT_EQ(ActiveProfileOptions().max_memory_bytes, 111u);
  }
  EXPECT_EQ(ActiveProfileOptions().max_memory_bytes, 0u);
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

TEST(SketchStateTest, ExportImportRoundtripPreservesFinalize) {
  Random rng(99);
  const std::vector<Value> column = TextColumn(rng, 25000, 9000);
  StatisticsSketch sketch(DataType::kText, SketchOptions(16384));
  ASSERT_TRUE(sketch.AbsorbRange(column, 0, column.size()).ok());
  ASSERT_GT(sketch.level(), 0u);

  const SketchState state = sketch.ExportState();
  auto restored = StatisticsSketch::FromState(state);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->Finalize().ToString(), sketch.Finalize().ToString());
  EXPECT_EQ(restored->level(), sketch.level());
  EXPECT_EQ(restored->tracked_count(), sketch.tracked_count());

  // A restored sketch keeps absorbing and merging like the original.
  StatisticsSketch continued = *std::move(restored);
  ASSERT_TRUE(continued.Absorb(Value::Text("v1")).ok());
  StatisticsSketch reference = std::move(sketch);
  ASSERT_TRUE(reference.Absorb(Value::Text("v1")).ok());
  EXPECT_EQ(continued.Finalize().ToString(), reference.Finalize().ToString());
}

TEST(SketchStateTest, MangledStatesDegradeToErrorsNotCorruptSketches) {
  Random rng(123);
  const std::vector<Value> column = TextColumn(rng, 25000, 9000);
  StatisticsSketch sketch(DataType::kText, SketchOptions(16384));
  ASSERT_TRUE(sketch.AbsorbRange(column, 0, column.size()).ok());
  ASSERT_GT(sketch.level(), 0u);
  const SketchState pristine = sketch.ExportState();

  SketchState impossible_level = pristine;
  impossible_level.level = 64;
  EXPECT_FALSE(StatisticsSketch::FromState(impossible_level).ok());

  // Splice in a value whose hash the sketch's level must have dropped:
  // re-validation catches the broken tracking invariant.
  SketchState broken_invariant = pristine;
  const uint32_t level = pristine.level;
  for (int i = 0; i < 100000; ++i) {
    Value candidate = Value::Text("intruder-" + std::to_string(i));
    const uint64_t hash = SketchValueHash(candidate);
    if ((hash >> (64 - level)) != 0) {
      broken_invariant.entries.emplace_back(std::move(candidate), 1);
      break;
    }
  }
  ASSERT_GT(broken_invariant.entries.size(), pristine.entries.size());
  EXPECT_FALSE(StatisticsSketch::FromState(broken_invariant).ok());
}

}  // namespace
}  // namespace efes
