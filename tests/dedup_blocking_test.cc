// Differential tests of the dedup module's blocking: the two flat pool
// batches (normalize row ranges into hash partitions, then group each
// partition) must report exactly the findings of the single-map blocking
// kept in tests/dedup_reference.cc, on the fuzz corpus and on a
// hand-built scenario of edge cases, at every thread count.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dedup_reference.h"
#include "efes/common/file_io.h"
#include "efes/common/parallel.h"
#include "efes/common/string_util.h"
#include "efes/dedup/dedup_module.h"
#include "efes/scenario/fuzzer.h"

namespace efes {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

class DedupBlockingTest : public ::testing::Test {
 protected:
  void TearDown() override { SetThreadCountOverride(0); }
};

std::vector<DuplicateClusterFinding> Findings(
    const IntegrationScenario& scenario, const DedupOptions& options) {
  auto report = DedupModule(options).AssessComplexity(scenario, RunContext{});
  EXPECT_TRUE(report.ok()) << report.status();
  if (!report.ok()) return {};
  const auto* dedup = dynamic_cast<const DedupComplexityReport*>(report->get());
  EXPECT_NE(dedup, nullptr);
  return dedup == nullptr ? std::vector<DuplicateClusterFinding>{}
                          : dedup->findings();
}

void ExpectSameFindings(const std::vector<DuplicateClusterFinding>& actual,
                        const std::vector<DuplicateClusterFinding>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    const DuplicateClusterFinding& a = actual[i];
    const DuplicateClusterFinding& e = expected[i];
    SCOPED_TRACE(e.target_relation);
    EXPECT_EQ(a.target_relation, e.target_relation);
    EXPECT_EQ(a.blocking_key, e.blocking_key);
    EXPECT_EQ(a.feeds, e.feeds);
    EXPECT_EQ(a.cluster_count, e.cluster_count);
    EXPECT_EQ(a.duplicate_records, e.duplicate_records);
    EXPECT_EQ(a.verification_pairs, e.verification_pairs);
    EXPECT_EQ(a.max_cluster_size, e.max_cluster_size);
    EXPECT_EQ(a.oversize_blocks, e.oversize_blocks);
    EXPECT_EQ(a.key_uniqueness, e.key_uniqueness);
    EXPECT_EQ(a.key_fill, e.key_fill);
    EXPECT_EQ(a.support_similarity, e.support_similarity);
    ASSERT_EQ(a.clusters.size(), e.clusters.size());
    for (size_t c = 0; c < a.clusters.size(); ++c) {
      EXPECT_EQ(a.clusters[c].key, e.clusters[c].key) << "cluster " << c;
      EXPECT_EQ(a.clusters[c].size, e.clusters[c].size) << "cluster " << c;
      EXPECT_EQ(a.clusters[c].pair_count, e.clusters[c].pair_count)
          << "cluster " << c;
    }
  }
}

/// Runs the module at every thread count against the reference.
void ExpectMatchesReference(const IntegrationScenario& scenario,
                            const DedupOptions& options) {
  auto expected = ReferenceDedupFindings(scenario, options);
  ASSERT_TRUE(expected.ok()) << expected.status();
  for (size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SetThreadCountOverride(threads);
    ExpectSameFindings(Findings(scenario, options), *expected);
  }
  SetThreadCountOverride(0);
}

TEST_F(DedupBlockingTest, NormalizationMatchesCctypeForEveryByte) {
  for (int b = 0; b < 256; ++b) {
    const std::string c(1, static_cast<char>(b));
    for (const std::string& text :
         {c, c + c, "a" + c + "B", c + "Xy" + c, "  " + c + "\t" + c + "Q ",
          "\xc3\x89" + c + "\xff"}) {
      EXPECT_EQ(NormalizeEntityKey(text), ReferenceNormalizeEntityKey(text))
          << "byte " << b;
    }
  }
}

TEST_F(DedupBlockingTest, CorpusSeedsMatchTheSingleMapReference) {
  Result<std::string> manifest = ReadFileToString(
      std::string(EFES_SOURCE_DIR) + "/data/fuzz_corpus.txt");
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  size_t seeds = 0;
  size_t findings = 0;
  for (const std::string& raw_line : Split(*manifest, '\n')) {
    const std::string uncommented = raw_line.substr(0, raw_line.find('#'));
    const std::string_view line = Trim(uncommented);
    if (line.empty()) continue;
    const uint64_t seed = std::stoull(std::string(line));
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto fuzzed = FuzzScenario(seed);
    ASSERT_TRUE(fuzzed.ok()) << fuzzed.status();
    ExpectMatchesReference(fuzzed->scenario, DedupOptions{});
    auto reference = ReferenceDedupFindings(fuzzed->scenario, DedupOptions{});
    ASSERT_TRUE(reference.ok());
    findings += reference->size();
    ++seeds;
  }
  EXPECT_GE(seeds, 50u);
  EXPECT_GT(findings, seeds / 2) << "the corpus must exercise blocking";
}

// --------------------------------------------------------- edge cases

Database MustCreate(Schema schema) {
  auto database = Database::Create(std::move(schema));
  EXPECT_TRUE(database.ok()) << database.status();
  return std::move(*database);
}

void MustAppend(Database& database, std::string_view relation,
                std::vector<Value> row) {
  auto table = database.mutable_table(relation);
  ASSERT_TRUE(table.ok()) << table.status();
  Status appended = (*table)->AppendRow(std::move(row));
  ASSERT_TRUE(appended.ok()) << appended;
}

/// person(id, name, city) and part(id, code, label). `code_type` is the
/// type of part.code: the target keeps text, the sources store integers.
Schema EdgeSchema(const std::string& name, const std::string& prefix,
                  DataType code_type) {
  Schema schema(name);
  EXPECT_TRUE(schema
                  .AddRelation(RelationDef(prefix + "person",
                                           {{"id", DataType::kInteger},
                                            {"name", DataType::kText},
                                            {"city", DataType::kText}}))
                  .ok());
  EXPECT_TRUE(schema
                  .AddRelation(RelationDef(prefix + "part",
                                           {{"id", DataType::kInteger},
                                            {"code", code_type},
                                            {"label", DataType::kText}}))
                  .ok());
  schema.AddConstraint(Constraint::PrimaryKey(prefix + "person", {"id"}));
  schema.AddConstraint(Constraint::PrimaryKey(prefix + "part", {"id"}));
  return schema;
}

CorrespondenceSet EdgeCorrespondences(const std::string& prefix,
                                      bool with_part) {
  CorrespondenceSet correspondences;
  for (const char* attribute : {"id", "name", "city"}) {
    correspondences.AddAttribute(prefix + "person", attribute, "person",
                                 attribute);
  }
  if (with_part) {
    for (const char* attribute : {"id", "code", "label"}) {
      correspondences.AddAttribute(prefix + "part", attribute, "part",
                                   attribute);
    }
  }
  return correspondences;
}

/// Filler rows per feed: more than several 4,096-row blocking ranges.
constexpr int kFillerRows = 10000;

/// Three feeds of `person` and two of `part`, with: whitespace runs of
/// every C-locale space byte; mixed case and bytes >= 0x80; NULLs and keys
/// that normalize to nothing; a key in all three feeds; a key repeated
/// within one feed, alone and across feeds; an oversize block; integer
/// keys rendered through ToString; and long columns.
IntegrationScenario MakeEdgeScenario() {
  IntegrationScenario scenario(
      "dedup_edges", MustCreate(EdgeSchema("target", "", DataType::kText)));
  const std::vector<std::vector<std::string>> names = {
      {"Ada\t\tLovelace", "ZO\xc3\xab \xc3\x85ngstr\xc3\xb6m", "Alan Turing",
       "Alan  Turing", "Solo Person", "solo person", "\xff\xfe Raw",
       "Unknown", "unknown", "UNKNOWN", "   ", "\t\r\n\v\f"},
      {" ada\r\nlovelace\v", "zo\xc3\xab \xc3\x85NGSTR\xc3\xb6M", "ALAN TURING",
       "\xff\xfe   raw ", "unknown", " unknown ", "Unknown", "",
       "Z\xc3\x8b \xc3\x85ngstr\xc3\xb6m"},
      {"\fADA LOVELACE\f", "Grace\x0bHopper", "only here"},
  };
  const std::vector<std::string> cities = {"london", "paris", "rome", "oslo"};
  for (size_t f = 0; f < names.size(); ++f) {
    const std::string prefix = "s" + std::to_string(f) + "_";
    Database source = MustCreate(EdgeSchema(
        "edge_src" + std::to_string(f), prefix, DataType::kInteger));
    int64_t id = 0;
    auto person = [&](Value name) {
      MustAppend(source, prefix + "person",
                 {Value::Integer(++id), std::move(name),
                  Value::Text(cities[static_cast<size_t>(id) % cities.size()])});
    };
    for (const std::string& name : names[f]) person(Value::Text(name));
    person(Value::Null());
    for (int i = 0; i < kFillerRows; ++i) {
      // Every 7th filler name is shared by all feeds, every 5th only by
      // the first two; the rest are this feed's own.
      if (i % 7 == 0) {
        person(Value::Text("Shared  " + std::to_string(i)));
      } else if (i % 5 == 0 && f < 2) {
        person(Value::Text(f == 0 ? "pair " + std::to_string(i)
                                  : "PAIR\t" + std::to_string(i)));
      } else {
        person(Value::Text("filler " + std::to_string(f) + "-" +
                           std::to_string(i)));
      }
    }
    if (f < 2) {
      // part: integer codes 0..999 in the first feed, 800..1799 in the
      // second; labels are a small shared domain.
      const int64_t base = f == 0 ? 0 : 800;
      for (int64_t i = 0; i < 1000; ++i) {
        MustAppend(source, prefix + "part",
                   {Value::Integer(i + 1), Value::Integer(base + i),
                    Value::Text(cities[static_cast<size_t>(i) % 3])});
      }
    }
    scenario.AddSource(std::move(source), EdgeCorrespondences(prefix, f < 2));
  }
  return scenario;
}

TEST_F(DedupBlockingTest, EdgeCasesMatchTheSingleMapReference) {
  const IntegrationScenario scenario = MakeEdgeScenario();
  DedupOptions options;
  options.max_block_size = 5;
  ExpectMatchesReference(scenario, options);

  // The scenario does reach every case it was built for.
  auto reference = ReferenceDedupFindings(scenario, options);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_EQ(reference->size(), 2u);
  const DuplicateClusterFinding& part = (*reference)[0];
  EXPECT_EQ(part.target_relation, "part");
  EXPECT_EQ(part.blocking_key, "code");
  EXPECT_EQ(part.cluster_count, 200u);  // codes 800..999
  const DuplicateClusterFinding& person = (*reference)[1];
  EXPECT_EQ(person.target_relation, "person");
  EXPECT_EQ(person.blocking_key, "name");
  EXPECT_EQ(person.oversize_blocks, 1u);  // six "unknown"s
  auto size_of = [&](const std::string& key) -> size_t {
    for (const DuplicateCluster& cluster : person.clusters) {
      if (cluster.key == key) return cluster.size;
    }
    return 0;
  };
  EXPECT_EQ(size_of("ada lovelace"), 3u);
  EXPECT_EQ(size_of("alan turing"), 3u);
  EXPECT_EQ(size_of("zo\xc3\xab \xc3\x85ngstr\xc3\xb6m"), 2u);
  EXPECT_EQ(size_of("\xff\xfe raw"), 2u);
  EXPECT_EQ(size_of("solo person"), 0u);
  EXPECT_EQ(size_of("shared 7"), 3u);
  EXPECT_EQ(size_of("pair 5"), 2u);
}

}  // namespace
}  // namespace efes
