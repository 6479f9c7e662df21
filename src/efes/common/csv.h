// Minimal RFC-4180-style CSV reading and writing.
//
// The scenario generators persist their synthetic datasets as CSV so the
// examples can demonstrate loading external data, and tests round-trip
// through this module.
//
// Parsing runs in one of two modes (CsvReadOptions::Mode):
//   * kStrict (default): the historical fail-fast behavior — the first
//     malformed row aborts the parse with a ParseError.
//   * kRecover: malformed rows are repaired (short rows padded, long rows
//     truncated, an unterminated quote closed at end of input) and each
//     repair is described as a DataIssue instead of failing. Dirty inputs
//     are EFES's subject matter (paper §5); recover mode lets the
//     estimator operate over them.
// Both modes enforce resource guards (max field size, max row count) and
// fail with ResourceExhausted instead of allocating without bound.

#ifndef EFES_COMMON_CSV_H_
#define EFES_COMMON_CSV_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "efes/common/data_issue.h"
#include "efes/common/result.h"

namespace efes {

/// A parsed CSV document: a header row plus data rows. All cells are kept
/// as raw strings; typing happens at the relational layer.
struct CsvDocument {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

/// How to parse and which limits to enforce.
struct CsvReadOptions {
  enum class Mode { kStrict, kRecover };

  Mode mode = Mode::kStrict;
  char delimiter = ',';
  /// Largest accepted single cell; longer cells fail the parse with
  /// ResourceExhausted (both modes — a runaway field is a resource
  /// problem, not a repairable data problem).
  size_t max_field_bytes = 16u << 20;
  /// Largest accepted number of records including the header.
  size_t max_rows = 10u * 1000 * 1000;
};

/// Receives the records ScanCsv completes, in input order. The views
/// point into the scanner's buffer and are valid only during the call.
class CsvRowSink {
 public:
  virtual void OnHeader(const std::vector<std::string_view>& cells) = 0;
  /// Data row `row` (1-based), already conformed to the header width.
  virtual void OnRow(size_t row,
                     const std::vector<std::string_view>& cells) = 0;

 protected:
  ~CsvRowSink() = default;
};

/// Parses CSV text like ParseCsv, but hands every record to `sink` as
/// soon as it is complete instead of building a CsvDocument. Repairs,
/// issues and errors are ParseCsv's, in the same precedence: a limit
/// error, then an unterminated quote (strict), then a missing header,
/// then the first misshapen row (strict). In strict mode no row after the
/// first misshapen one reaches the sink. Issues are appended only when
/// the scan succeeds.
Status ScanCsv(std::string_view text, const CsvReadOptions& options,
               CsvRowSink& sink, std::vector<DataIssue>* issues = nullptr);

/// Parses CSV text. Supports quoted fields with embedded delimiters,
/// doubled quotes, and embedded newlines; accepts both \n and \r\n.
/// In strict mode every row must have exactly as many cells as the
/// header; in recover mode misshapen rows are repaired and reported
/// through `issues` (may be null to discard the diagnostics).
Result<CsvDocument> ParseCsv(std::string_view text,
                             const CsvReadOptions& options,
                             std::vector<DataIssue>* issues = nullptr);

/// Strict parse with default limits (the historical entry point).
Result<CsvDocument> ParseCsv(std::string_view text, char delimiter = ',');

/// Serializes a document, quoting cells that contain the delimiter,
/// quotes, or newlines.
std::string WriteCsv(const CsvDocument& doc, char delimiter = ',');

/// Reads and parses a CSV file from disk. Fault point: `csv.read`.
Result<CsvDocument> ReadCsvFile(const std::string& path,
                                const CsvReadOptions& options,
                                std::vector<DataIssue>* issues = nullptr);

/// Strict read with default limits.
Result<CsvDocument> ReadCsvFile(const std::string& path,
                                char delimiter = ',');

/// Writes a document to disk atomically (temp file + rename), replacing
/// any existing file.
Status WriteCsvFile(const CsvDocument& doc, const std::string& path,
                    char delimiter = ',');

/// A block of data rows from ChunkedCsvReader::NextRows, each conformed
/// to the header width. The cells' bytes sit back to back in one buffer,
/// row-major, with their end offsets in a second, so a block holds two
/// buffers however many cells it has, and a cell is a view into it. The
/// reader's scanner writes each record's bytes straight into that
/// buffer, so a cell is copied once on its way from the file (a doubled
/// quote is stored as one; a repaired row is padded or cut in place).
class CsvRows {
 public:
  /// Rows in the block.
  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  /// Cells per row: the header width.
  size_t width() const { return width_; }

  /// The cell at (row, column); valid while the block lives.
  std::string_view cell(size_t row, size_t column) const {
    const size_t index = row * width_ + column;
    return std::string_view(bytes_.data() + offsets_[index],
                            offsets_[index + 1] - offsets_[index]);
  }

 private:
  friend class ChunkedCsvReader;
  explicit CsvRows(size_t width) : width_(width) {}
  /// Takes the record the reader's scanner just wrote at the end of
  /// bytes_: its cells end at `cell_ends` there, and the first begins at
  /// the previous row's end. A short record gets empty cells and a long
  /// one loses its extra cells and their bytes, so the row has width()
  /// cells.
  void Append(const std::vector<size_t>& cell_ends);

  size_t width_ = 0;
  size_t rows_ = 0;
  std::string bytes_;
  /// offsets_[i] and offsets_[i + 1] bound cell i (row-major).
  std::vector<size_t> offsets_ = {0};
};

/// Streaming CSV ingest: reads a file in fixed-size row blocks instead of
/// materializing the whole document, so profiling can absorb arbitrarily
/// large sources block by block (`efes profile`). Parsing semantics
/// are identical to ReadCsvFile — same quoting rules, strict/recover
/// behavior, repair messages, and resource limits — because both run the
/// same incremental scanner; only the delivery granularity differs.
///
/// Usage:
///   EFES_ASSIGN_OR_RETURN(ChunkedCsvReader reader,
///                         ChunkedCsvReader::Open(path, options, 65536));
///   while (!reader.done()) {
///     EFES_ASSIGN_OR_RETURN(CsvRows rows, reader.NextRows(&issues));
///     ...  // at most 65536 rows; empty only at end of file
///   }
class ChunkedCsvReader {
 public:
  /// Opens `path` and parses up to the header row. `chunk_rows` == 0 means
  /// "all remaining rows in one chunk". Fault point: `csv.read`.
  static Result<ChunkedCsvReader> Open(const std::string& path,
                                       const CsvReadOptions& options,
                                       size_t chunk_rows);

  ChunkedCsvReader(ChunkedCsvReader&&) noexcept;
  ChunkedCsvReader& operator=(ChunkedCsvReader&&) noexcept;
  ChunkedCsvReader(const ChunkedCsvReader&) = delete;
  ChunkedCsvReader& operator=(const ChunkedCsvReader&) = delete;
  ~ChunkedCsvReader();

  /// The header row (available immediately after Open succeeds).
  const std::vector<std::string>& header() const;

  /// The next block of at most chunk_rows data rows, normalized to the
  /// header width under the configured mode (repairs reported through
  /// `issues`, which may be null). Returns an empty block at end of
  /// file. Errors (strict-mode shape violations, resource limits) are
  /// sticky: every later call returns the same status.
  Result<CsvRows> NextRows(std::vector<DataIssue>* issues = nullptr);

  /// NextRows with every cell copied into its own string, for callers
  /// that keep rows past the block (the benchmark probe, efesbench/).
  Result<std::vector<std::vector<std::string>>> NextChunk(
      std::vector<DataIssue>* issues = nullptr);

  /// True once the file is exhausted and every row has been delivered.
  bool done() const;

  /// Data rows delivered so far (header excluded).
  size_t rows_delivered() const;

 private:
  struct Impl;
  explicit ChunkedCsvReader(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace efes

#endif  // EFES_COMMON_CSV_H_
