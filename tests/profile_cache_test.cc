// Tests for the content-addressed profile cache: fingerprint
// sensitivity (any value/constraint/column-name mutation changes the
// key), bit-exact serialization roundtrips (hexfloat doubles), cache-hit
// identity, the invalidation property (a mutated source recomputes and
// matches a cold run byte for byte), disk persistence, corrupt-snapshot
// recovery (seeded byte-mangler, never an error), version-mismatch
// handling, fault injection on the load/save paths, and byte-identical
// pipeline output cached vs uncached at any thread count.

#include "efes/cache/profile_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "efes/cache/fingerprint.h"
#include "efes/common/fault.h"
#include "efes/common/file_io.h"
#include "efes/common/metrics.h"
#include "efes/common/parallel.h"
#include "efes/common/random.h"
#include "efes/core/engine.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/experiment/json_export.h"
#include "efes/profiling/constraint_discovery.h"
#include "efes/profiling/profiler.h"
#include "efes/profiling/statistics.h"
#include "efes/scenario/bibliographic.h"

namespace efes {
namespace {

/// Cache tests drive the production profiler; under default
/// options ProfileColumn cannot fail, so the helper unwraps in place.
AttributeStatistics Stats(const std::vector<Value>& column, DataType type,
                          ProfileCache* cache = nullptr) {
  auto profiled = ProfileColumn(column, type, {}, cache);
  EXPECT_TRUE(profiled.ok()) << profiled.status().ToString();
  return profiled.ok() ? *std::move(profiled) : AttributeStatistics{};
}

std::vector<Value> MixedColumn() {
  return {Value::Text("Sweet Home Alabama"), Value::Null(),
          Value::Text("4:43"),  Value::Integer(1974),
          Value::Real(0.5),     Value::Boolean(true),
          Value::Text(""),      Value::Text("with space % and = signs")};
}

std::vector<Value> NumericColumn() {
  std::vector<Value> column;
  Random rng(4242);
  for (size_t i = 0; i < 200; ++i) {
    column.push_back(Value::Real(rng.UniformInt(-1000, 1000) / 7.0));
  }
  column.push_back(Value::Null());
  return column;
}

/// A two-relation database small enough to mutate precisely. The knobs
/// isolate the three invalidation triggers the cache must react to: a
/// cell value, a declared constraint, a column name.
struct TinyOptions {
  std::string title_column = "title";
  bool declare_title_not_null = false;
  std::string first_title = "Second Coming";
};

Database MakeTinyDatabase(const TinyOptions& options = {}) {
  Schema schema("tiny");
  EXPECT_TRUE(schema
                  .AddRelation(RelationDef(
                      "albums", {{"id", DataType::kInteger},
                                 {options.title_column, DataType::kText}}))
                  .ok());
  EXPECT_TRUE(schema
                  .AddRelation(RelationDef(
                      "songs", {{"album", DataType::kInteger},
                                {"name", DataType::kText},
                                {"length", DataType::kReal}}))
                  .ok());
  schema.AddConstraint(Constraint::PrimaryKey("albums", {"id"}));
  schema.AddConstraint(
      Constraint::ForeignKey("songs", {"album"}, "albums", {"id"}));
  if (options.declare_title_not_null) {
    schema.AddConstraint(
        Constraint::NotNull("albums", options.title_column));
  }
  auto database = Database::Create(std::move(schema));
  EXPECT_TRUE(database.ok()) << database.status();
  auto albums = database->mutable_table("albums");
  EXPECT_TRUE(albums.ok());
  EXPECT_TRUE((*albums)
                  ->AppendRow({Value::Integer(1),
                               Value::Text(options.first_title)})
                  .ok());
  EXPECT_TRUE(
      (*albums)->AppendRow({Value::Integer(2), Value::Text("Argus")}).ok());
  auto songs = database->mutable_table("songs");
  EXPECT_TRUE(songs.ok());
  EXPECT_TRUE((*songs)
                  ->AppendRow({Value::Integer(1), Value::Text("Dreamer"),
                               Value::Real(4.55)})
                  .ok());
  EXPECT_TRUE((*songs)
                  ->AppendRow({Value::Integer(2), Value::Text("Throw Down"),
                               Value::Null()})
                  .ok());
  return *std::move(database);
}

// --- Fingerprints ---------------------------------------------------------

TEST(FingerprintTest, ColumnFingerprintIsDeterministic) {
  EXPECT_EQ(FingerprintColumn(MixedColumn(), DataType::kText),
            FingerprintColumn(MixedColumn(), DataType::kText));
}

TEST(FingerprintTest, TargetTypeIsPartOfTheKey) {
  EXPECT_NE(FingerprintColumn(MixedColumn(), DataType::kText),
            FingerprintColumn(MixedColumn(), DataType::kInteger));
}

TEST(FingerprintTest, AnySingleValueMutationChangesTheFingerprint) {
  const std::vector<Value> column = MixedColumn();
  const uint64_t base = FingerprintColumn(column, DataType::kText);
  for (size_t i = 0; i < column.size(); ++i) {
    std::vector<Value> mutated = column;
    mutated[i] = mutated[i].is_null() ? Value::Integer(7) : Value::Null();
    EXPECT_NE(FingerprintColumn(mutated, DataType::kText), base)
        << "mutating value " << i << " did not change the fingerprint";
  }
}

TEST(FingerprintTest, AdjacentStringsDoNotShiftIntoEachOther) {
  // Length prefixes keep ("ab","c") and ("a","bc") apart.
  std::vector<Value> a = {Value::Text("ab"), Value::Text("c")};
  std::vector<Value> b = {Value::Text("a"), Value::Text("bc")};
  EXPECT_NE(FingerprintColumn(a, DataType::kText),
            FingerprintColumn(b, DataType::kText));
}

TEST(FingerprintTest, NullAndEmptyTextDiffer) {
  std::vector<Value> with_null = {Value::Null()};
  std::vector<Value> with_empty = {Value::Text("")};
  EXPECT_NE(FingerprintColumn(with_null, DataType::kText),
            FingerprintColumn(with_empty, DataType::kText));
}

TEST(FingerprintTest, DatabaseFingerprintIsDeterministic) {
  EXPECT_EQ(FingerprintDatabase(MakeTinyDatabase()),
            FingerprintDatabase(MakeTinyDatabase()));
}

TEST(FingerprintTest, DatabaseFingerprintSeesValueEdits) {
  TinyOptions edited;
  edited.first_title = "Second Coming!";
  EXPECT_NE(FingerprintDatabase(MakeTinyDatabase(edited)),
            FingerprintDatabase(MakeTinyDatabase()));
}

TEST(FingerprintTest, DatabaseFingerprintSeesConstraintChanges) {
  TinyOptions constrained;
  constrained.declare_title_not_null = true;
  EXPECT_NE(FingerprintDatabase(MakeTinyDatabase(constrained)),
            FingerprintDatabase(MakeTinyDatabase()));
}

TEST(FingerprintTest, DatabaseFingerprintSeesColumnRenames) {
  TinyOptions renamed;
  renamed.title_column = "album_title";
  EXPECT_NE(FingerprintDatabase(MakeTinyDatabase(renamed)),
            FingerprintDatabase(MakeTinyDatabase()));
}

TEST(FingerprintTest, HexRenderingIsSixteenLowercaseDigits) {
  EXPECT_EQ(FingerprintToHex(0), "0000000000000000");
  EXPECT_EQ(FingerprintToHex(0xdeadbeef01234567ull), "deadbeef01234567");
}

// --- Serialization --------------------------------------------------------

void ExpectStatisticsEqual(const AttributeStatistics& a,
                           const AttributeStatistics& b) {
  // The cache contract is bit-exactness, which the serialized form
  // captures completely; spot-check the interesting fields directly too.
  EXPECT_EQ(SerializeStatistics(a), SerializeStatistics(b));
  EXPECT_EQ(a.evaluated_against, b.evaluated_against);
  EXPECT_EQ(a.fill_status.total_count, b.fill_status.total_count);
  EXPECT_EQ(a.fill_status.null_count, b.fill_status.null_count);
  EXPECT_EQ(a.fill_status.uncastable_count, b.fill_status.uncastable_count);
  EXPECT_EQ(a.constancy.constancy, b.constancy.constancy);
  EXPECT_EQ(a.constancy.distinct_count, b.constancy.distinct_count);
  EXPECT_EQ(a.text_pattern.has_value(), b.text_pattern.has_value());
  if (a.text_pattern && b.text_pattern) {
    EXPECT_EQ(a.text_pattern->patterns, b.text_pattern->patterns);
  }
  EXPECT_EQ(a.char_histogram.has_value(), b.char_histogram.has_value());
  if (a.char_histogram && b.char_histogram) {
    EXPECT_EQ(a.char_histogram->frequencies, b.char_histogram->frequencies);
  }
  EXPECT_EQ(a.histogram.has_value(), b.histogram.has_value());
  if (a.histogram && b.histogram) {
    EXPECT_EQ(a.histogram->min, b.histogram->min);
    EXPECT_EQ(a.histogram->max, b.histogram->max);
    EXPECT_EQ(a.histogram->bucket_fractions, b.histogram->bucket_fractions);
  }
  EXPECT_EQ(a.top_k.coverage, b.top_k.coverage);
  ASSERT_EQ(a.top_k.top_values.size(), b.top_k.top_values.size());
  for (size_t i = 0; i < a.top_k.top_values.size(); ++i) {
    EXPECT_TRUE(a.top_k.top_values[i].first == b.top_k.top_values[i].first);
    EXPECT_EQ(a.top_k.top_values[i].second, b.top_k.top_values[i].second);
  }
}

TEST(CacheSerializationTest, TextStatisticsRoundtripBitExact) {
  AttributeStatistics stats =
      Stats(MixedColumn(), DataType::kText);
  auto parsed = ParseStatistics(SerializeStatistics(stats));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectStatisticsEqual(stats, *parsed);
}

TEST(CacheSerializationTest, NumericStatisticsRoundtripBitExact) {
  AttributeStatistics stats =
      Stats(NumericColumn(), DataType::kReal);
  auto parsed = ParseStatistics(SerializeStatistics(stats));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectStatisticsEqual(stats, *parsed);
}

TEST(CacheSerializationTest, ConstraintsRoundtrip) {
  std::vector<DiscoveredConstraint> constraints = {
      {Constraint::NotNull("albums", "title"), 42},
      {Constraint::Unique("albums", {"id"}), 42},
      {Constraint::ForeignKey("songs", {"album"}, "albums", {"id"}), 17},
      {Constraint::FunctionalDependency("songs", {"a b"}, {"c%d"}), 9},
  };
  auto parsed = ParseConstraints(SerializeConstraints(constraints));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), constraints.size());
  for (size_t i = 0; i < constraints.size(); ++i) {
    EXPECT_EQ((*parsed)[i].constraint, constraints[i].constraint);
    EXPECT_EQ((*parsed)[i].support, constraints[i].support);
  }
}

TEST(CacheSerializationTest, MalformedLinesAreParseErrors) {
  for (const char* bad :
       {"", "x", "5 1 2", "not numbers at all", "3 0 =r %zz 1"}) {
    EXPECT_FALSE(ParseStatistics(bad).ok()) << "accepted: " << bad;
  }
  EXPECT_FALSE(ParseConstraints("banana").ok());
  EXPECT_FALSE(ParseConstraints("1 0 =r").ok());
}

// --- In-memory cache behavior ---------------------------------------------

TEST(ProfileCacheTest, ProfilingHitsTheActiveCache) {
  ProfileCache cache;
  AttributeStatistics cold = Stats(MixedColumn(), DataType::kText, &cache);
  EXPECT_EQ(cache.entry_count(), 1u);
  AttributeStatistics warm = Stats(MixedColumn(), DataType::kText, &cache);
  ExpectStatisticsEqual(cold, warm);
}

TEST(ProfileCacheTest, NoActiveCacheMeansNoCaching) {
  // Profiling uses only the cache it is passed: not the process default,
  // even when one is installed.
  ProfileCache cache;
  (void)Stats(MixedColumn(), DataType::kText, &cache);
  EXPECT_EQ(cache.entry_count(), 1u);
  ScopedProfileCache scoped(&cache);
  (void)Stats(NumericColumn(), DataType::kReal);
  ASSERT_TRUE(DiscoverConstraints(MakeTinyDatabase()).ok());
  EXPECT_EQ(cache.entry_count(), 1u);  // unchanged: no cache was passed
}

TEST(ProfileCacheTest, ScopedActivationNestsAndRestores) {
  ProfileCache outer_cache;
  ProfileCache inner_cache;
  EXPECT_EQ(ProfileCache::Active(), nullptr);
  {
    ScopedProfileCache outer(&outer_cache);
    EXPECT_EQ(ProfileCache::Active(), &outer_cache);
    {
      ScopedProfileCache inner(&inner_cache);
      EXPECT_EQ(ProfileCache::Active(), &inner_cache);
    }
    EXPECT_EQ(ProfileCache::Active(), &outer_cache);
  }
  EXPECT_EQ(ProfileCache::Active(), nullptr);
}

TEST(ProfileCacheTest, DiscoverConstraintsUsesTheCache) {
  const Database database = MakeTinyDatabase();
  auto uncached = DiscoverConstraints(database);
  ProfileCache cache;
  auto cold = DiscoverConstraints(database, {}, &cache);
  EXPECT_EQ(cache.entry_count(), 1u);
  auto warm = DiscoverConstraints(database, {}, &cache);
  ASSERT_TRUE(uncached.ok() && cold.ok() && warm.ok());
  ASSERT_EQ(cold->size(), uncached->size());
  ASSERT_EQ(warm->size(), uncached->size());
  for (size_t i = 0; i < uncached->size(); ++i) {
    EXPECT_EQ((*cold)[i].constraint, (*uncached)[i].constraint);
    EXPECT_EQ((*warm)[i].constraint, (*uncached)[i].constraint);
    EXPECT_EQ((*warm)[i].support, (*uncached)[i].support);
  }
}

TEST(ProfileCacheTest, DiscoveryOptionsArePartOfTheKey) {
  const Database database = MakeTinyDatabase();
  ProfileCache cache;
  ASSERT_TRUE(DiscoverConstraints(database, {}, &cache).ok());
  DiscoveryOptions no_fds;
  no_fds.discover_functional_dependencies = false;
  ASSERT_TRUE(DiscoverConstraints(database, no_fds, &cache).ok());
  EXPECT_EQ(cache.entry_count(), 2u);  // distinct keys, no false sharing
}

// --- Invalidation property -------------------------------------------------

Result<IntegrationScenario> MakeScenario() {
  BiblioOptions options;
  options.publication_count = 60;
  return MakeBiblioScenario(BiblioSchemaId::kS1, BiblioSchemaId::kS2,
                            options);
}

/// The core incremental-re-estimation property: estimate, mutate one
/// cell of one source, estimate again against the same (now stale for
/// that column) cache — the result must be byte-identical to a cold,
/// cache-free run over the mutated scenario.
TEST(CacheInvalidationPropertyTest, MutatedSourceRecomputesExactly) {
  Random rng(20260805);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto scenario = MakeScenario();
    ASSERT_TRUE(scenario.ok());

    ProfileCache cache;
    EfesEngine engine = MakeDefaultEngine();
    RunOptions cached_run;
    cached_run.cache = &cache;
    auto before = engine.Run(*scenario, cached_run);
    ASSERT_TRUE(before.ok()) << before.status();

    // Mutate one random cell of one source table, respecting the
    // column's declared type so the instance stays canonical.
    Database& database = scenario->sources[0].database;
    ASSERT_GT(database.tables().size(), 0u);
    const size_t t = rng.UniformUint64(database.tables().size());
    auto table = database.mutable_table(database.tables()[t].name());
    ASSERT_TRUE(table.ok());
    ASSERT_GT((*table)->row_count(), 0u);
    const size_t row = rng.UniformUint64((*table)->row_count());
    const size_t col = rng.UniformUint64((*table)->column_count());
    const DataType type = (*table)->def().attributes()[col].type;
    Value replacement = Value::Text("mutated-" + std::to_string(round));
    if (type == DataType::kInteger) {
      replacement = Value::Integer(900000 + round);
    } else if (type == DataType::kReal) {
      replacement = Value::Real(0.125 + round);
    } else if (type == DataType::kBoolean) {
      replacement = Value::Boolean(round % 2 == 0);
    }
    (*table)->at(row, col) = replacement;

    auto warm = engine.Run(*scenario, cached_run);
    ASSERT_TRUE(warm.ok()) << warm.status();
    EfesEngine cold_engine = MakeDefaultEngine();
    auto cold = cold_engine.Run(*scenario);  // no cache at all
    ASSERT_TRUE(cold.ok()) << cold.status();
    EXPECT_EQ(warm->ToText(), cold->ToText());
    EXPECT_EQ(EstimationResultToJson(*warm), EstimationResultToJson(*cold));
  }
}

// --- Disk persistence ------------------------------------------------------

std::string TempCachePath(const std::string& tag) {
  return testing::TempDir() + "/efes_cache_" + tag + ".efes";
}

TEST(CachePersistenceTest, SaveLoadRoundtripServesIdenticalEntries) {
  // Exercise the create_directories path with a nested file location.
  const std::string path =
      testing::TempDir() + "/efes_cache_nested/profile_cache.efes";
  ProfileCache cache;
  (void)Stats(MixedColumn(), DataType::kText, &cache);
  (void)Stats(NumericColumn(), DataType::kReal, &cache);
  ASSERT_TRUE(DiscoverConstraints(MakeTinyDatabase(), {}, &cache).ok());
  ASSERT_TRUE(cache.SaveToFile(path).ok());

  ProfileCache reloaded;
  ASSERT_TRUE(reloaded.LoadFromFile(path).ok());
  EXPECT_EQ(reloaded.entry_count(), cache.entry_count());

  const uint64_t key = FingerprintColumn(MixedColumn(), DataType::kText);
  auto original = cache.LookupStatistics(key);
  auto restored = reloaded.LookupStatistics(key);
  ASSERT_TRUE(original.has_value());
  ASSERT_TRUE(restored.has_value());
  ExpectStatisticsEqual(*original, *restored);

  // A reloaded cache saved again is byte-identical: the format is
  // canonical (ordered keys, hexfloat doubles).
  const std::string resaved = TempCachePath("resave");
  ASSERT_TRUE(reloaded.SaveToFile(resaved).ok());
  auto first = ReadFileToString(path);
  auto second = ReadFileToString(resaved);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
}

TEST(CachePersistenceTest, MissingFileIsAColdStartNotAnError) {
  ProfileCache cache;
  EXPECT_TRUE(cache.LoadFromFile(TempCachePath("does-not-exist")).ok());
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(CachePersistenceTest, VersionMismatchIsIgnoredWholesale) {
  const std::string path = TempCachePath("version");
  ASSERT_TRUE(WriteFileAtomic(path,
                              "EFESCACHE 999\nS 0000000000000000 3 1 0 0\n")
                  .ok());
  ProfileCache cache;
  EXPECT_TRUE(cache.LoadFromFile(path).ok());
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(CachePersistenceTest, PreSketchV1SnapshotDegradesToAMiss) {
  // Snapshots from older builds load as empty (a cold start), never
  // crash or resurrect entries: v1 predates the sketch key scheme, and
  // v2 may hold per-chunk `K` sketch lines that no parser reads anymore.
  const std::string v1 = TempCachePath("v1");
  ASSERT_TRUE(WriteFileAtomic(v1,
                              "EFESCACHE 1\n"
                              "S 00000000deadbeef 3 1 0 0\n"
                              "C 00000000deadbeef 0\n")
                  .ok());
  const std::string v2 = TempCachePath("v2");
  ASSERT_TRUE(WriteFileAtomic(v2,
                              "EFESCACHE 2\n"
                              "C 00000000deadbeef 0\n"
                              "K 00000000deadbeef 4 0 0 0 1 0 0 0 0x0p+0 "
                              "0x0p+0 1 tx 1\n")
                  .ok());
  for (const std::string& path : {v1, v2}) {
    ProfileCache cache;
    EXPECT_TRUE(cache.LoadFromFile(path).ok()) << path;
    EXPECT_EQ(cache.entry_count(), 0u) << path;
  }
}

TEST(CachePersistenceTest, Version3StatisticsDegradeToAMiss) {
  // Version 3 statistics came from the sorted-value Finalize, whose
  // constancy and length stddev may differ from today's in the last
  // bits. The key covers only the column and options, so a v3 `S` line
  // that parses today must still load as nothing.
  ProfileCache cache;
  cache.StoreStatistics(FingerprintColumn(MixedColumn(), DataType::kText),
                        Stats(MixedColumn(), DataType::kText));
  const std::string current = TempCachePath("v4");
  ASSERT_TRUE(cache.SaveToFile(current).ok());
  Result<std::string> text = ReadFileToString(current);
  ASSERT_TRUE(text.ok());
  const std::string header =
      "EFESCACHE " + std::to_string(kProfileCacheFormatVersion) + "\n";
  ASSERT_EQ(text->rfind(header, 0), 0u) << *text;
  ASSERT_NE(text->find("\nS "), std::string::npos) << *text;

  ProfileCache reloaded;
  ASSERT_TRUE(reloaded.LoadFromFile(current).ok());
  EXPECT_EQ(reloaded.entry_count(), 1u);

  const std::string v3 = TempCachePath("v3");
  ASSERT_TRUE(
      WriteFileAtomic(v3, "EFESCACHE 3\n" + text->substr(header.size()))
          .ok());
  ProfileCache stale;
  EXPECT_TRUE(stale.LoadFromFile(v3).ok());
  EXPECT_EQ(stale.entry_count(), 0u);
}

/// Seeded byte-mangler in the corruption_property_test style: truncate,
/// flip a byte, splice a hostile fragment, duplicate a slice.
std::string Corrupt(std::string text, Random& rng) {
  const size_t edits = 1 + rng.UniformUint64(4);
  for (size_t e = 0; e < edits; ++e) {
    if (text.empty()) break;
    switch (rng.UniformUint64(4)) {
      case 0:
        text.resize(rng.UniformUint64(text.size() + 1));
        break;
      case 1: {
        const size_t at = rng.UniformUint64(text.size());
        text[at] = static_cast<char>(rng.UniformUint64(256));
        break;
      }
      case 2: {
        static const char* kFragments[] = {
            "S ",   "C ",  "EFESCACHE 2", "EFESCACHE 3",
            "\n\n", "=%%", "\xff\xfe",
            " ",    "r0x1p+1", "999999999999999999999999",
        };
        const size_t at = rng.UniformUint64(text.size() + 1);
        text.insert(at, kFragments[rng.UniformUint64(
                            sizeof(kFragments) / sizeof(kFragments[0]))]);
        break;
      }
      default: {
        const size_t from = rng.UniformUint64(text.size());
        const size_t len = rng.UniformUint64(text.size() - from + 1);
        const std::string slice = text.substr(from, len);
        text.insert(rng.UniformUint64(text.size() + 1), slice);
        break;
      }
    }
  }
  return text;
}

TEST(CachePersistenceTest, CorruptSnapshotsDegradeToRecomputationNotError) {
  ProfileCache cache;
  (void)Stats(MixedColumn(), DataType::kText, &cache);
  (void)Stats(NumericColumn(), DataType::kReal, &cache);
  ASSERT_TRUE(DiscoverConstraints(MakeTinyDatabase(), {}, &cache).ok());
  const std::string path = TempCachePath("corrupt");
  ASSERT_TRUE(cache.SaveToFile(path).ok());
  auto pristine = ReadFileToString(path);
  ASSERT_TRUE(pristine.ok());

  const std::vector<Value> column = NumericColumn();
  Random rng(777);
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("corruption round " + std::to_string(round));
    ASSERT_TRUE(WriteFileAtomic(path, Corrupt(*pristine, rng)).ok());
    ProfileCache recovered;
    // The contract: corruption is a miss, never an error or a crash.
    EXPECT_TRUE(recovered.LoadFromFile(path).ok());
    // Whatever survived, profiling through the cache still works.
    AttributeStatistics stats = Stats(column, DataType::kReal, &recovered);
    EXPECT_EQ(stats.fill_status.total_count, column.size());
  }
}

class CacheFaultTest : public testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().DisarmAll(); }
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }
};

TEST_F(CacheFaultTest, LoadAndSaveFaultPointsAreInjectable) {
  const std::string path = TempCachePath("faults");
  ProfileCache cache;
  (void)Stats(MixedColumn(), DataType::kText, &cache);
  ASSERT_TRUE(cache.SaveToFile(path).ok());

  ASSERT_TRUE(FaultRegistry::Global().ArmFromString("cache.load").ok());
  ProfileCache blocked;
  EXPECT_FALSE(blocked.LoadFromFile(path).ok());
  FaultRegistry::Global().DisarmAll();
  EXPECT_TRUE(blocked.LoadFromFile(path).ok());

  ASSERT_TRUE(FaultRegistry::Global().ArmFromString("cache.save").ok());
  EXPECT_FALSE(cache.SaveToFile(path).ok());
  FaultRegistry::Global().DisarmAll();
  EXPECT_TRUE(cache.SaveToFile(path).ok());
}

TEST_F(CacheFaultTest, FailedDiscoveryStoresNothing) {
  // A failed parallel region fails discovery, and the cache keeps no
  // truncated list under the normal key.
  const Database database = MakeTinyDatabase();
  DiscoveryOptions options;
  options.min_row_count = 1;  // the tiny tables have two rows each
  auto uncached = DiscoverConstraints(database, options);
  ASSERT_TRUE(uncached.ok()) << uncached.status();
  ASSERT_FALSE(uncached->empty());
  ProfileCache cache;
  ASSERT_TRUE(FaultRegistry::Global().ArmFromString("parallel.task").ok());
  auto failed = DiscoverConstraints(database, options, &cache);
  FaultRegistry::Global().DisarmAll();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(cache.entry_count(), 0u);

  auto rerun = DiscoverConstraints(database, options, &cache);
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  EXPECT_EQ(cache.entry_count(), 1u);
  ASSERT_EQ(rerun->size(), uncached->size());
  for (size_t i = 0; i < uncached->size(); ++i) {
    EXPECT_EQ((*rerun)[i].ToString(), (*uncached)[i].ToString());
  }
}

// --- Threads × cache byte-identity ----------------------------------------

TEST(CacheDeterminismTest, CachedAndUncachedRunsMatchAtAnyThreadCount) {
  auto scenario = MakeScenario();
  ASSERT_TRUE(scenario.ok());

  std::vector<std::string> renderings;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SetThreadCountOverride(threads);
    // Uncached baseline.
    EfesEngine engine = MakeDefaultEngine();
    auto uncached = engine.Run(*scenario);
    ASSERT_TRUE(uncached.ok()) << uncached.status();
    renderings.push_back(EstimationResultToJson(*uncached));
    // Cold through a fresh cache, then warm through the same cache.
    ProfileCache cache;
    RunOptions cached_run;
    cached_run.cache = &cache;
    auto cold = engine.Run(*scenario, cached_run);
    ASSERT_TRUE(cold.ok()) << cold.status();
    renderings.push_back(EstimationResultToJson(*cold));
    auto warm = engine.Run(*scenario, cached_run);
    ASSERT_TRUE(warm.ok()) << warm.status();
    renderings.push_back(EstimationResultToJson(*warm));
  }
  SetThreadCountOverride(0);
  for (size_t i = 1; i < renderings.size(); ++i) {
    EXPECT_EQ(renderings[0], renderings[i]) << "rendering " << i;
  }
}

}  // namespace
}  // namespace efes
