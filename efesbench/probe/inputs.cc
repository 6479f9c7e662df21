#include "efesbench/probe/inputs.h"

#include <algorithm>
#include <filesystem>
#include <vector>

#include "efes/common/csv.h"
#include "efes/common/file_io.h"
#include "efes/common/string_util.h"

namespace efesbench {

namespace {

/// splitmix64 finalizer: derives independent values from (seed, index).
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The fixed shape of a benchmark scenario. The fuzzer draws the number
/// of detail relations, the type of every extra attribute, and which
/// numeric attributes a source renders as text from the seed; each of
/// those changes how much work an estimate does. Pinning them leaves the
/// seed to vary only the data.
struct Shape {
  size_t details = 0;
  size_t text_extras = 0;
  size_t integer_extras = 0;
  size_t real_extras = 0;
  /// Whether every source renders every numeric extra as decorated text
  /// (the fuzzer's sloppy-number rate pinned at 1) or none does (0).
  bool sloppy = false;

  size_t extras() const { return text_extras + integer_extras + real_extras; }
};

efes::FuzzOptions ShapeOptions(const Shape& shape, size_t entities) {
  efes::FuzzOptions options;
  options.min_sources = options.max_sources = 3;
  options.min_entities = options.max_entities = entities;
  options.min_extra_attributes = options.max_extra_attributes = shape.extras();
  options.max_detail_relations = shape.details;
  options.target_data_rate = 1.0;
  options.sloppy_number_rate = shape.sloppy ? 1.0 : 0.0;
  return options;
}

size_t CountType(const efes::RelationDef& relation, efes::DataType type) {
  size_t count = 0;
  for (const efes::AttributeDef& attribute : relation.attributes()) {
    if (attribute.type == type) ++count;
  }
  return count;
}

bool HasShape(const efes::IntegrationScenario& scenario, const Shape& shape) {
  const auto& target = scenario.target.schema().relations();
  // The entity relation comes first: id, name, then the extras.
  return target.size() == 1 + shape.details &&
         CountType(target[0], efes::DataType::kText) ==
             1 + shape.text_extras &&
         CountType(target[0], efes::DataType::kInteger) ==
             1 + shape.integer_extras &&
         CountType(target[0], efes::DataType::kReal) == shape.real_extras;
}

/// The first fuzz seed derived from `seed` whose scenario has `shape`.
/// The fuzzer draws the relations and attribute types before any data,
/// so a tiny scenario with the same options decides them cheaply.
efes::Result<uint64_t> ShapedFuzzSeed(uint64_t seed, const Shape& shape) {
  constexpr uint64_t kCandidates = 1 << 16;
  for (uint64_t candidate = 0; candidate < kCandidates; ++candidate) {
    const uint64_t fuzz_seed = Mix(seed * kCandidates + candidate);
    EFES_ASSIGN_OR_RETURN(efes::FuzzedScenario probe,
                          efes::FuzzScenario(fuzz_seed, ShapeOptions(shape, 8)));
    if (HasShape(probe.scenario, shape)) return fuzz_seed;
  }
  return efes::Status::Internal("no fuzz seed with the benchmark shape");
}

std::string CsvCell(const std::string& cell) {
  if (cell.find_first_of(",\"\r\n") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (char c : cell) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

InputSize SourceSize(const efes::IntegrationScenario& scenario) {
  InputSize size;
  for (const efes::SourceBinding& source : scenario.sources) {
    for (const efes::Table& table : source.database.tables()) {
      size.rows += table.row_count();
      size.cells += table.row_count() * table.column_count();
    }
  }
  return size;
}

efes::Result<efes::FuzzedScenario> BenchScenario(uint64_t seed,
                                                 size_t entities) {
  Shape shape;
  shape.details = 2;
  shape.text_extras = 2;
  shape.integer_extras = 1;
  shape.real_extras = 1;
  shape.sloppy = true;
  EFES_ASSIGN_OR_RETURN(uint64_t fuzz_seed, ShapedFuzzSeed(seed, shape));
  return efes::FuzzScenario(fuzz_seed, ShapeOptions(shape, entities));
}

efes::Status ApplyEdit(const std::string& scenario_dir, uint64_t op) {
  namespace fs = std::filesystem;
  std::vector<std::string> sources;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(scenario_dir) / "sources")) {
    sources.push_back(entry.path().string());
  }
  if (sources.empty()) {
    return efes::Status::NotFound("no sources under " + scenario_dir);
  }
  std::sort(sources.begin(), sources.end());
  const fs::path data = fs::path(sources[op % sources.size()]) / "data";
  std::string entity_csv;
  for (const fs::directory_entry& entry : fs::directory_iterator(data)) {
    if (efes::EndsWith(entry.path().filename().string(), "entity.csv")) {
      entity_csv = entry.path().string();
    }
  }
  if (entity_csv.empty()) {
    return efes::Status::NotFound("no entity table under " + data.string());
  }
  EFES_ASSIGN_OR_RETURN(efes::CsvDocument doc,
                        efes::ReadCsvFile(entity_csv));
  const size_t rows = doc.rows.size();
  const size_t columns = doc.header.size();
  if (rows < 2 || columns < 3) return efes::Status::OK();
  // Columns 0 and 1 are the key and the entity name; edit the others.
  for (uint64_t k = 0; k < 3; ++k) {
    const uint64_t h = Mix(op * 8 + k);
    const size_t row = h % rows;
    const size_t column = 2 + (h >> 32) % (columns - 2);
    std::string& cell = doc.rows[row][column];
    for (size_t step = 1; step < rows; ++step) {
      const std::string& donor = doc.rows[(row + step) % rows][column];
      if (donor != cell) {
        cell = donor;
        break;
      }
    }
  }
  return efes::WriteCsvFile(doc, entity_csv);
}

efes::Result<InputSize> WriteTallCsv(uint64_t seed, size_t rows,
                                     const std::string& path) {
  Shape shape;
  shape.text_extras = 2;
  shape.integer_extras = 2;
  shape.real_extras = 1;
  EFES_ASSIGN_OR_RETURN(uint64_t fuzz_seed, ShapedFuzzSeed(seed, shape));
  EFES_ASSIGN_OR_RETURN(efes::FuzzedScenario fuzzed,
                        efes::FuzzScenario(fuzz_seed, ShapeOptions(shape, 20000)));
  // Base rows: every source's entity table, cells already rendered.
  std::vector<std::string> base;  // ",id,name,..." per base row
  std::vector<std::string> header = {"uid", "id", "name"};
  for (const efes::SourceBinding& source : fuzzed.scenario.sources) {
    const efes::Table& table = source.database.tables().front();
    EFES_ASSIGN_OR_RETURN(efes::CsvDocument doc,
                          source.database.ExportCsv(table.name()));
    if (header.size() == 3) {
      // "s0_x1_abc" -> "x1_abc": the extra attributes without the prefix.
      for (size_t c = 2; c < doc.header.size(); ++c) {
        header.push_back(doc.header[c].substr(3));
      }
    }
    for (std::vector<std::string>& row : doc.rows) {
      std::string line;
      for (const std::string& cell : row) line += "," + CsvCell(cell);
      base.push_back(std::move(line));
    }
  }
  std::string text = efes::Join(header, ",") + "\n";
  text.reserve(rows * (base.front().size() + 12));
  for (size_t r = 0; r < rows; ++r) {
    text += std::to_string(r + 1);
    text += base[r % base.size()];
    text += '\n';
  }
  EFES_RETURN_IF_ERROR(efes::WriteFileAtomic(path, text));
  InputSize size;
  size.rows = rows;
  size.cells = rows * header.size();
  return size;
}

}  // namespace efesbench
