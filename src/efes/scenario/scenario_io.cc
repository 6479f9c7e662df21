#include "efes/scenario/scenario_io.h"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <iterator>
#include <optional>
#include <sstream>

#include "efes/common/deadline.h"
#include "efes/common/fault.h"
#include "efes/common/file_io.h"
#include "efes/common/metrics.h"
#include "efes/common/parallel.h"
#include "efes/common/string_util.h"
#include "efes/relational/schema_text.h"
#include "efes/telemetry/trace.h"

namespace efes {

namespace fs = std::filesystem;

namespace {

bool IsRecover(const LoadOptions& options) {
  return options.mode == LoadOptions::Mode::kRecover;
}

CsvReadOptions CsvOptionsFor(const LoadOptions& options) {
  CsvReadOptions csv;
  csv.mode = IsRecover(options) ? CsvReadOptions::Mode::kRecover
                                : CsvReadOptions::Mode::kStrict;
  csv.max_field_bytes = options.max_field_bytes;
  csv.max_rows = options.max_rows;
  return csv;
}

void AddIssue(std::vector<DataIssue>* issues, std::string component,
              std::string location, std::string message) {
  if (issues == nullptr) return;
  issues->push_back(DataIssue{std::move(component), std::move(location),
                              std::move(message)});
}

Status SaveDatabase(const Database& database, const fs::path& directory) {
  std::error_code ec;
  fs::create_directories(directory / "data", ec);
  if (ec) {
    return Status::InvalidArgument("cannot create " + directory.string() +
                                   ": " + ec.message());
  }
  EFES_RETURN_IF_ERROR(
      WriteFileAtomic((directory / "schema.sql").string(),
                      WriteSchemaText(database.schema())));
  for (const Table& table : database.tables()) {
    if (table.row_count() == 0) continue;
    EFES_ASSIGN_OR_RETURN(CsvDocument doc,
                          database.ExportCsv(table.name()));
    EFES_RETURN_IF_ERROR(WriteCsvFile(
        doc, (directory / "data" / (table.name() + ".csv")).string()));
  }
  return Status::OK();
}

/// One relation's CSV file on its way through LoadScenario's phases.
struct CsvFileLoad {
  std::string path;
  Table* table = nullptr;
  /// Read in phase 1; the phase 2 task frees it.
  std::string bytes;
  /// The read succeeded, so phase 2 loads the file.
  bool read = false;
  /// Phase 2 results. `status` is a strict-mode error; `issues` are the
  /// file's recover-mode issues in order (a read failure's "table
  /// skipped" is recorded here by phase 1).
  Status status;
  std::vector<DataIssue> issues;
};

/// One database directory (the target or a source) on its way through
/// LoadScenario's phases.
struct DatabaseLoad {
  std::string name;
  fs::path directory;
  /// Empty when the schema did not load; `schema_status` says why.
  std::optional<Database> database;
  Status schema_status;
  std::vector<CsvFileLoad> files;
  std::optional<std::string> correspondences;
  /// A correspondences.txt that exists but could not be read.
  Status correspondences_status;
  /// The strict-mode failure that ended phase 1 in this database.
  Status stop;
};

/// Phase 1 for one database: reads schema.sql and creates the database,
/// then reads each relation's CSV in schema order and, for a source,
/// correspondences.txt. Returns false when a strict-mode failure ended
/// the phase (recorded in `load.stop`, or `load.schema_status`).
bool ReadDatabase(DatabaseLoad& load, bool is_source, bool recover) {
  auto create = [&]() -> Result<Database> {
    EFES_ASSIGN_OR_RETURN(
        std::string ddl,
        ReadFileToString((load.directory / "schema.sql").string()));
    EFES_ASSIGN_OR_RETURN(Schema schema, ParseSchemaText(ddl, load.name));
    return Database::Create(std::move(schema));
  };
  Result<Database> database = create();
  if (!database.ok()) {
    load.schema_status = database.status();
    return recover && is_source;
  }
  load.database = std::move(*database);
  fs::path data_dir = load.directory / "data";
  if (fs::exists(data_dir)) {
    for (const RelationDef& relation : load.database->schema().relations()) {
      fs::path csv_path = data_dir / (relation.name() + ".csv");
      if (!fs::exists(csv_path)) continue;
      Status fault = CheckFaultPoint("csv.read");
      Result<std::string> bytes =
          fault.ok() ? ReadFileToString(csv_path.string())
                     : Result<std::string>(std::move(fault));
      if (!bytes.ok() && !recover) {
        load.stop = bytes.status();
        return false;
      }
      CsvFileLoad& file = load.files.emplace_back();
      file.path = csv_path.string();
      file.table = *load.database->mutable_table(relation.name());
      if (!bytes.ok()) {
        AddIssue(&file.issues, "data", file.path,
                 "table skipped: " + bytes.status().ToString());
        continue;
      }
      file.bytes = std::move(*bytes);
      file.read = true;
    }
  }
  if (!is_source) return true;
  fs::path corr_path = load.directory / "correspondences.txt";
  if (fs::exists(corr_path)) {
    Result<std::string> text = ReadFileToString(corr_path.string());
    if (text.ok()) {
      load.correspondences = std::move(*text);
    } else if (!recover) {
      load.stop = text.status();
      return false;
    } else {
      load.correspondences_status = text.status();
    }
  }
  return true;
}

/// Casts each data row of one CSV file straight into its table. Strict
/// mode stops converting at the first rejected row and keeps its error;
/// recover mode skips rejected rows and reports each one.
class TableSink final : public CsvRowSink {
 public:
  TableSink(Table* table, bool recover, const std::string& path)
      : table_(table), recover_(recover), path_(path) {}

  void OnHeader(const std::vector<std::string_view>& cells) override {
    header_status_ = table_->CheckCsvHeader(cells);
  }

  void OnRow(size_t row, const std::vector<std::string_view>& cells) override {
    if (!header_status_.ok() || !row_status_.ok()) return;
    Status appended = table_->AppendCsvRow(cells);
    if (appended.ok()) return;
    if (!recover_) {
      row_status_ = std::move(appended);
      return;
    }
    AddIssue(&rejected_, "data", path_ + ", row " + std::to_string(row),
             "row rejected: " + appended.ToString());
  }

  const Status& header_status() const { return header_status_; }
  const Status& row_status() const { return row_status_; }
  std::vector<DataIssue>& rejected() { return rejected_; }

 private:
  Table* const table_;
  const bool recover_;
  const std::string& path_;
  Status header_status_;
  Status row_status_;
  std::vector<DataIssue> rejected_;
};

/// Phase 2 for one file: scans its bytes into its table, then frees
/// them. Writes only `file`. Errors keep the historical precedence: a
/// CSV-level error (which has the path appended), then a header
/// mismatch, then the first rejected row.
void LoadCsvFile(CsvFileLoad& file, const CsvReadOptions& options) {
  TraceSpan span("csv.parse");
  const bool recover = options.mode == CsvReadOptions::Mode::kRecover;
  const std::string bytes = std::move(file.bytes);
  file.table->Reserve(std::min<size_t>(
      static_cast<size_t>(std::count(bytes.begin(), bytes.end(), '\n')),
      options.max_rows));
  TableSink sink(file.table, recover, file.path);
  std::vector<DataIssue> csv_issues;
  Status scanned = ScanCsv(bytes, options, sink, &csv_issues);
  if (!scanned.ok()) {
    scanned = Status(scanned.code(),
                     scanned.message() + " (" + file.path + ")");
    if (!recover) {
      file.status = std::move(scanned);
      return;
    }
    *file.table = Table(file.table->def());
    AddIssue(&file.issues, "data", file.path,
             "table skipped: " + scanned.ToString());
    return;
  }
  for (DataIssue& issue : csv_issues) {
    issue.location = file.path + ", " + issue.location;
    file.issues.push_back(std::move(issue));
  }
  if (!sink.header_status().ok()) {
    if (!recover) {
      file.status = sink.header_status();
      return;
    }
    AddIssue(&file.issues, "data", file.path,
             "table partially loaded: " + sink.header_status().ToString());
    return;
  }
  file.status = sink.row_status();
  std::move(sink.rejected().begin(), sink.rejected().end(),
            std::back_inserter(file.issues));
}

/// True when `corr` references only relations/attributes that exist in
/// the schemas; recover mode drops the rest instead of failing Validate.
Status ValidateOne(const Correspondence& corr, const Schema& source,
                   const Schema& target) {
  CorrespondenceSet singleton;
  singleton.Add(corr);
  return singleton.Validate(source, target);
}

}  // namespace

Result<Correspondence> ParseCorrespondenceLine(std::string_view line) {
  size_t arrow = line.find("->");
  if (arrow == std::string_view::npos) {
    return Status::ParseError("correspondence line lacks '->': " +
                              std::string(line));
  }
  std::string_view left = Trim(line.substr(0, arrow));
  std::string_view right = Trim(line.substr(arrow + 2));
  if (left.empty() || right.empty()) {
    return Status::ParseError("empty correspondence side: " +
                              std::string(line));
  }
  // Splits "relation" or "relation.attribute", trimming whitespace around
  // the dot so "albums . name" parses as albums.name. An empty relation
  // name, or a dot with nothing after it, is a malformed element — not a
  // silent relation-level correspondence.
  auto split_element =
      [&line](std::string_view element)
      -> Result<std::pair<std::string, std::string>> {
    size_t dot = element.find('.');
    if (dot == std::string_view::npos) {
      return std::pair<std::string, std::string>{std::string(element), ""};
    }
    std::string_view relation = Trim(element.substr(0, dot));
    std::string_view attribute = Trim(element.substr(dot + 1));
    if (relation.empty()) {
      return Status::ParseError("empty relation name in correspondence: " +
                                std::string(line));
    }
    if (attribute.empty()) {
      return Status::ParseError(
          "empty attribute name after '.' in correspondence: " +
          std::string(line));
    }
    return std::pair<std::string, std::string>{std::string(relation),
                                               std::string(attribute)};
  };
  EFES_ASSIGN_OR_RETURN(auto source_element, split_element(left));
  EFES_ASSIGN_OR_RETURN(auto target_element, split_element(right));
  if (source_element.second.empty() != target_element.second.empty()) {
    return Status::ParseError(
        "correspondence mixes relation and attribute granularity: " +
        std::string(line));
  }
  Correspondence corr;
  corr.source_relation = std::move(source_element.first);
  corr.source_attribute = std::move(source_element.second);
  corr.target_relation = std::move(target_element.first);
  corr.target_attribute = std::move(target_element.second);
  return corr;
}

Result<CorrespondenceSet> ParseCorrespondences(std::string_view text) {
  return ParseCorrespondences(text, LoadOptions{}, nullptr);
}

Result<CorrespondenceSet> ParseCorrespondences(
    std::string_view text, const LoadOptions& options,
    std::vector<DataIssue>* issues) {
  CorrespondenceSet set;
  size_t line_number = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_number;
    std::string_view line = Trim(raw_line);
    size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = Trim(line.substr(0, hash));
    if (line.empty()) continue;
    Result<Correspondence> corr = ParseCorrespondenceLine(line);
    if (!corr.ok()) {
      if (!IsRecover(options)) return corr.status();
      std::ostringstream location;
      location << "line " << line_number;
      AddIssue(issues, "correspondences", location.str(),
               "line skipped: " + corr.status().ToString());
      continue;
    }
    set.Add(std::move(*corr));
  }
  return set;
}

std::string WriteCorrespondences(const CorrespondenceSet& correspondences) {
  std::string out;
  for (const Correspondence& corr : correspondences.all()) {
    out += corr.ToString();
    out += '\n';
  }
  return out;
}

Status SaveScenario(const IntegrationScenario& scenario,
                    const std::string& directory) {
  fs::path root(directory);
  EFES_RETURN_IF_ERROR(SaveDatabase(scenario.target, root / "target"));
  for (const SourceBinding& source : scenario.sources) {
    fs::path source_dir = root / "sources" / source.database.name();
    EFES_RETURN_IF_ERROR(SaveDatabase(source.database, source_dir));
    EFES_RETURN_IF_ERROR(
        WriteFileAtomic((source_dir / "correspondences.txt").string(),
                        WriteCorrespondences(source.correspondences)));
  }
  return Status::OK();
}

Result<IntegrationScenario> LoadScenario(const std::string& directory) {
  return LoadScenario(directory, LoadOptions{}, nullptr);
}

Result<IntegrationScenario> LoadScenario(const std::string& directory,
                                         const LoadOptions& options,
                                         ScenarioLoadReport* report) {
  EFES_RETURN_IF_ERROR(CheckFaultPoint("scenario.load"));
  static Histogram& load_ms =
      MetricsRegistry::Global().GetHistogram("scenario.load.ms");
  TraceSpan span("scenario.load", nullptr, &load_ms);
  const bool recover = IsRecover(options);
  fs::path root(directory);
  if (!fs::exists(root / "target" / "schema.sql")) {
    return Status::NotFound("no target/schema.sql under " + directory);
  }

  // Phase 1, on this thread: every read and fault point in the canonical
  // order (the target, then the sources sorted by name). A strict-mode
  // failure ends the phase, but an earlier file's error still wins, so
  // the files read so far are loaded before it is reported.
  std::deque<DatabaseLoad> loads;
  DatabaseLoad& target = loads.emplace_back();
  target.name = "target";
  target.directory = root / "target";
  const bool target_read = ReadDatabase(target, /*is_source=*/false, recover);
  // The target is mandatory in every mode: without its schema there is
  // nothing to estimate against.
  EFES_RETURN_IF_ERROR(target.schema_status);
  if (target_read) {
    fs::path sources_dir = root / "sources";
    std::vector<fs::path> source_dirs;
    if (fs::exists(sources_dir)) {
      for (const fs::directory_entry& entry :
           fs::directory_iterator(sources_dir)) {
        if (entry.is_directory()) source_dirs.push_back(entry.path());
      }
    }
    std::sort(source_dirs.begin(), source_dirs.end());
    for (const fs::path& source_dir : source_dirs) {
      DatabaseLoad& source = loads.emplace_back();
      source.name = source_dir.filename().string();
      source.directory = source_dir;
      if (!ReadDatabase(source, /*is_source=*/true, recover)) break;
    }
  }

  // Phase 2: one task per CSV file. A task writes only its own table,
  // status and issues, so the tasks need no ordering among themselves.
  // Only cancellation and injected faults fail a task; data errors wait
  // in the file's slot for phase 3.
  std::vector<CsvFileLoad*> files;
  size_t bytes = 0;
  for (DatabaseLoad& load : loads) {
    for (CsvFileLoad& file : load.files) {
      if (!file.read) continue;
      files.push_back(&file);
      bytes += file.bytes.size();
    }
  }
  MetricsRegistry::Global()
      .GetCounter("scenario.load.files")
      .Increment(files.size());
  MetricsRegistry::Global().GetCounter("scenario.load.bytes").Increment(bytes);
  const CsvReadOptions csv_options = CsvOptionsFor(options);
  EFES_RETURN_IF_ERROR(ParallelFor(files.size(), [&](size_t i) -> Status {
    EFES_RETURN_IF_ERROR(CheckCancellation());
    LoadCsvFile(*files[i], csv_options);
    return Status::OK();
  }));

  // Phase 3, on this thread: in canonical order, the first strict-mode
  // error wins and recover-mode issues are listed.
  std::vector<DataIssue> issues;
  std::optional<IntegrationScenario> scenario;
  for (DatabaseLoad& load : loads) {
    if (!load.schema_status.ok()) {
      if (!recover) return load.schema_status;
      AddIssue(&issues, "scenario", load.name,
               "source skipped: " + load.schema_status.ToString());
      continue;
    }
    for (CsvFileLoad& file : load.files) {
      EFES_RETURN_IF_ERROR(file.status);
      std::move(file.issues.begin(), file.issues.end(),
                std::back_inserter(issues));
    }
    EFES_RETURN_IF_ERROR(load.stop);
    if (!scenario.has_value()) {
      scenario.emplace(root.filename().string(), std::move(*load.database));
      continue;
    }
    CorrespondenceSet correspondences;
    fs::path corr_path = load.directory / "correspondences.txt";
    if (!load.correspondences_status.ok()) {
      AddIssue(&issues, "correspondences", corr_path.string(),
               "file skipped: " + load.correspondences_status.ToString());
    } else if (load.correspondences.has_value()) {
      EFES_ASSIGN_OR_RETURN(
          CorrespondenceSet parsed,
          ParseCorrespondences(*load.correspondences, options, &issues));
      if (recover) {
        // Drop correspondences that reference relations or attributes
        // absent from the loaded schemas; strict mode lets the final
        // Validate reject the whole scenario as before.
        for (const Correspondence& corr : parsed.all()) {
          Status valid = ValidateOne(corr, load.database->schema(),
                                     scenario->target.schema());
          if (!valid.ok()) {
            AddIssue(&issues, "correspondences", load.name,
                     "correspondence dropped: " + valid.ToString());
            continue;
          }
          correspondences.Add(corr);
        }
      } else {
        correspondences = std::move(parsed);
      }
    }
    scenario->AddSource(std::move(*load.database),
                        std::move(correspondences));
  }
  EFES_RETURN_IF_ERROR(scenario->Validate());
  if (!issues.empty()) {
    MetricsRegistry::Global()
        .GetCounter("scenario.load.issues")
        .Increment(issues.size());
  }
  if (report != nullptr) {
    report->degraded = !issues.empty();
    report->issues = std::move(issues);
  }
  return std::move(*scenario);
}

}  // namespace efes
