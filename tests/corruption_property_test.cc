// Corruption property test: every text parser in the ingestion path must
// survive arbitrarily mangled input — truncated mid-token, bytes flipped,
// garbage spliced in — by returning a clean non-OK Status. No parser may
// crash, throw, or hang, whatever the bytes. The mutations are drawn from
// the repo's seeded PRNG, so a failure reproduces exactly from the seed
// logged by SCOPED_TRACE.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "efes/common/csv.h"
#include "efes/common/random.h"
#include "efes/relational/schema_text.h"
#include "efes/scenario/scenario_io.h"

#include "corruption.h"

namespace efes {
namespace {

constexpr char kValidCsv[] =
    "id,title,artist,notes\n"
    "1,\"Abbey Road\",\"The Beatles\",\"quoted, with comma\"\n"
    "2,Kind of Blue,Miles Davis,\n"
    "3,\"multi\nline\",\"doubled \"\"quotes\"\"\",plain\n";

constexpr char kValidCorrespondences[] =
    "# curated\n"
    "albums -> records\n"
    "albums.name -> records.title\n"
    "songs.length -> tracks.duration\n";

constexpr char kValidDdl[] =
    "CREATE TABLE records (\n"
    "  id INTEGER PRIMARY KEY,\n"
    "  title TEXT NOT NULL,\n"
    "  genre TEXT\n"
    ");\n"
    "CREATE TABLE tracks (\n"
    "  record INTEGER NOT NULL REFERENCES records(id),\n"
    "  title TEXT NOT NULL\n"
    ");\n";

/// A parse outcome is acceptable when it is OK or a non-OK status with a
/// message — anything else (a throw reaching here fails the test via
/// gtest's unhandled-exception handling).
template <typename ResultType>
void ExpectCleanOutcome(const ResultType& result) {
  if (!result.ok()) {
    EXPECT_FALSE(result.status().message().empty());
  }
}

TEST(CorruptionPropertyTest, ParseCsvSurvivesMangledBytes) {
  Random rng(20260805);
  for (int iteration = 0; iteration < 400; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    std::string corrupted = Corrupt(kValidCsv, rng);
    ExpectCleanOutcome(ParseCsv(corrupted));

    // Recover mode must also never throw, and any repairs it makes are
    // described as issues.
    CsvReadOptions options;
    options.mode = CsvReadOptions::Mode::kRecover;
    std::vector<DataIssue> issues;
    auto recovered = ParseCsv(corrupted, options, &issues);
    ExpectCleanOutcome(recovered);
    for (const DataIssue& issue : issues) {
      EXPECT_FALSE(issue.message.empty());
    }
  }
}

TEST(CorruptionPropertyTest, ParseCorrespondencesSurvivesMangledBytes) {
  Random rng(7041776);
  for (int iteration = 0; iteration < 400; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    std::string corrupted = Corrupt(kValidCorrespondences, rng);
    ExpectCleanOutcome(ParseCorrespondences(corrupted));

    LoadOptions lenient;
    lenient.mode = LoadOptions::Mode::kRecover;
    std::vector<DataIssue> issues;
    ExpectCleanOutcome(ParseCorrespondences(corrupted, lenient, &issues));
  }
}

TEST(CorruptionPropertyTest, ParseSchemaTextSurvivesMangledBytes) {
  Random rng(1812);
  for (int iteration = 0; iteration < 400; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    ExpectCleanOutcome(ParseSchemaText(Corrupt(kValidDdl, rng), "target"));
  }
}

TEST(CorruptionPropertyTest, PureGarbageNeverCrashesAnyParser) {
  Random rng(424242);
  for (int iteration = 0; iteration < 200; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    std::string garbage(rng.UniformUint64(512), '\0');
    for (char& byte : garbage) {
      byte = static_cast<char>(rng.UniformUint64(256));
    }
    ExpectCleanOutcome(ParseCsv(garbage));
    ExpectCleanOutcome(ParseCorrespondences(garbage));
    ExpectCleanOutcome(ParseSchemaText(garbage, "garbage"));
  }
}

}  // namespace
}  // namespace efes
