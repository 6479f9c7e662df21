#include "efes/common/csv.h"

#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "efes/common/fault.h"
#include "efes/common/file_io.h"

namespace efes {

namespace {

bool NeedsQuoting(std::string_view cell, char delimiter) {
  return cell.find(delimiter) != std::string_view::npos ||
         cell.find('"') != std::string_view::npos ||
         cell.find('\n') != std::string_view::npos ||
         cell.find('\r') != std::string_view::npos;
}

void AppendCell(std::string& out, std::string_view cell, char delimiter) {
  if (!NeedsQuoting(cell, delimiter)) {
    out.append(cell);
    return;
  }
  out.push_back('"');
  for (char c : cell) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

void AddIssue(std::vector<DataIssue>* issues, std::string location,
              std::string message) {
  if (issues == nullptr) return;
  issues->push_back(
      DataIssue{"csv", std::move(location), std::move(message)});
}

// Incremental RFC-4180 scanner shared by ScanCsv (one Feed over the whole
// text) and ChunkedCsvReader (repeated Feeds over file blocks). Because a
// quote escape ("") and a \r\n sequence can straddle a block boundary, the
// scanner defers those decisions with one-character pending flags instead
// of looking ahead, which makes it produce the exact same records for any
// split of the input. Each completed record goes to
// `sink.OnRecord(std::vector<std::string_view>&)`; the views point into
// the scanner's record buffer and are valid only during the call.
template <typename Sink>
class CsvScanner {
 public:
  CsvScanner(const CsvReadOptions& options, Sink& sink)
      : options_(options), sink_(sink) {
    for (char c : {options.delimiter, '"', '\r', '\n'}) {
      breaks_run_[static_cast<unsigned char>(c)] = true;
    }
  }

  // Feeds input bytes. A run of bytes that cannot change the scanner's
  // state (outside quotes: up to a delimiter, quote, CR or LF; inside
  // quotes: up to a quote) is appended in one step; every other byte
  // goes through FeedChar. Returns false once a resource limit latched
  // (see limit_error()).
  bool Feed(std::string_view text) {
    const char* next = text.data();
    const char* const end = next + text.size();
    while (next != end) {
      if (!pending_quote_ && !pending_cr_) {
        const char* run_end = in_quotes_ ? FindQuote(next, end)
                                         : FindRunBreak(next, end);
        if (run_end != next) {
          if (!GrowCell(std::string_view(
                  next, static_cast<size_t>(run_end - next)))) {
            return false;
          }
          cell_started_ = true;
          next = run_end;
          if (next == end) break;
        }
      }
      if (!FeedChar(*next++)) return false;
    }
    return true;
  }

  // Signals end of input: resolves pending state and flushes a final
  // record without a trailing newline. Same return contract as Feed.
  bool Finish() {
    if (pending_cr_) {
      pending_cr_ = false;
      if (!EndRecord()) return false;
    }
    if (pending_quote_) {
      // A closing quote was the last character of the input.
      pending_quote_ = false;
      in_quotes_ = false;
    }
    if (in_quotes_) {
      unterminated_quote_ = true;
      in_quotes_ = false;
    }
    if (CellSize() > 0 || !cell_ends_.empty() || cell_started_) {
      if (!EndRecord()) return false;
    }
    return true;
  }

  bool unterminated_quote() const { return unterminated_quote_; }
  const Status& limit_error() const { return limit_error_; }

 private:
  bool FeedChar(char c) {
    if (pending_quote_) {
      pending_quote_ = false;
      if (c == '"') return GrowCell("\"");  // doubled quote: literal "
      in_quotes_ = false;                   // closing quote; reprocess c
    } else if (pending_cr_) {
      pending_cr_ = false;
      if (c == '\n') return EndRecord();  // \r\n ends one record
      if (!EndRecord()) return false;     // bare \r; reprocess c
    }
    if (in_quotes_) {
      if (c == '"') {
        pending_quote_ = true;  // escape or closing quote: next char tells
        return true;
      }
      return GrowCell(std::string_view(&c, 1));
    }
    if (c == '"' && !cell_started_ && CellSize() == 0) {
      in_quotes_ = true;
      cell_started_ = true;
      return true;
    }
    if (c == options_.delimiter) {
      EndCell();
      return true;
    }
    if (c == '\r') {
      pending_cr_ = true;  // a following \n merges into one record end
      return true;
    }
    if (c == '\n') return EndRecord();
    cell_started_ = true;
    return GrowCell(std::string_view(&c, 1));
  }

  const char* FindRunBreak(const char* next, const char* end) const {
    while (next != end && !breaks_run_[static_cast<unsigned char>(*next)]) {
      ++next;
    }
    return next;
  }

  static const char* FindQuote(const char* next, const char* end) {
    const void* quote =
        std::memchr(next, '"', static_cast<size_t>(end - next));
    return quote == nullptr ? end : static_cast<const char*>(quote);
  }

  size_t CellSize() const { return record_.size() - cell_start_; }

  void EndCell() {
    cell_ends_.push_back(record_.size());
    cell_start_ = record_.size();
    cell_started_ = false;
  }

  bool EndRecord() {
    EndCell();
    cells_.clear();
    size_t begin = 0;
    for (size_t cell_end : cell_ends_) {
      cells_.emplace_back(record_.data() + begin, cell_end - begin);
      begin = cell_end;
    }
    sink_.OnRecord(cells_);
    record_.clear();
    cell_ends_.clear();
    cell_start_ = 0;
    ++total_records_;
    if (total_records_ > options_.max_rows) {
      std::ostringstream oss;
      oss << "CSV input exceeds the row limit of " << options_.max_rows;
      limit_error_ = Status::ResourceExhausted(oss.str());
      return false;
    }
    return true;
  }

  // Fails exactly when appending `bytes` one at a time would: once the
  // open cell would exceed max_field_bytes.
  bool GrowCell(std::string_view bytes) {
    if (bytes.size() > options_.max_field_bytes - CellSize()) {
      std::ostringstream oss;
      oss << "CSV field in record " << total_records_ + 1
          << " exceeds the field limit of " << options_.max_field_bytes
          << " bytes";
      limit_error_ = Status::ResourceExhausted(oss.str());
      return false;
    }
    record_.append(bytes);
    return true;
  }

  const CsvReadOptions options_;
  Sink& sink_;
  bool breaks_run_[256] = {};
  // The open record's cells back to back; cell_ends_ holds each closed
  // cell's end offset and cell_start_ the open cell's start.
  std::string record_;
  std::vector<size_t> cell_ends_;
  size_t cell_start_ = 0;
  std::vector<std::string_view> cells_;
  bool in_quotes_ = false;
  bool cell_started_ = false;
  bool pending_quote_ = false;
  bool pending_cr_ = false;
  bool unterminated_quote_ = false;
  size_t total_records_ = 0;
  Status limit_error_;
};

// Conforms `record` (data row number `row_number`, 1-based) to the header
// width: strict mode fails, recover mode pads/truncates and reports.
template <typename Cells>
Status NormalizeRecord(Cells& record, size_t header_size,
                       size_t row_number, bool recover,
                       std::vector<DataIssue>* issues) {
  if (record.size() == header_size) return Status::OK();
  if (!recover) {
    std::ostringstream oss;
    oss << "CSV row " << row_number << " has " << record.size()
        << " cells, expected " << header_size;
    return Status::ParseError(oss.str());
  }
  std::ostringstream location;
  location << "row " << row_number;
  std::ostringstream oss;
  if (record.size() < header_size) {
    oss << "short row padded from " << record.size() << " to " << header_size
        << " cells";
  } else {
    oss << "long row truncated from " << record.size() << " to "
        << header_size << " cells";
  }
  AddIssue(issues, location.str(), oss.str());
  record.resize(header_size);
  return Status::OK();
}

// ScanCsv's scanner sink: the first record is the header; every later
// one is conformed to its width and passed on, until a strict-mode shape
// error stops delivery.
class RowNormalizer {
 public:
  RowNormalizer(bool recover, CsvRowSink& sink)
      : recover_(recover), sink_(sink) {}

  void OnRecord(std::vector<std::string_view>& cells) {
    if (!has_header_) {
      has_header_ = true;
      header_size_ = cells.size();
      sink_.OnHeader(cells);
      return;
    }
    ++rows_;
    if (!shape_error_.ok()) return;
    shape_error_ =
        NormalizeRecord(cells, header_size_, rows_, recover_, &issues_);
    if (shape_error_.ok()) sink_.OnRow(rows_, cells);
  }

  bool has_header() const { return has_header_; }
  const Status& shape_error() const { return shape_error_; }
  std::vector<DataIssue>& issues() { return issues_; }

 private:
  const bool recover_;
  CsvRowSink& sink_;
  bool has_header_ = false;
  size_t header_size_ = 0;
  size_t rows_ = 0;
  Status shape_error_;
  std::vector<DataIssue> issues_;
};

// Builds the CsvDocument ParseCsv returns.
class DocumentSink final : public CsvRowSink {
 public:
  void OnHeader(const std::vector<std::string_view>& cells) override {
    doc.header.assign(cells.begin(), cells.end());
  }
  void OnRow(size_t, const std::vector<std::string_view>& cells) override {
    doc.rows.emplace_back(cells.begin(), cells.end());
  }

  CsvDocument doc;
};

}  // namespace

Status ScanCsv(std::string_view text, const CsvReadOptions& options,
               CsvRowSink& sink, std::vector<DataIssue>* issues) {
  const bool recover = options.mode == CsvReadOptions::Mode::kRecover;
  RowNormalizer normalizer(recover, sink);
  CsvScanner<RowNormalizer> scanner(options, normalizer);
  if (!scanner.Feed(text) || !scanner.Finish()) {
    return scanner.limit_error();
  }
  if (scanner.unterminated_quote() && !recover) {
    return Status::ParseError("unterminated quoted CSV field");
  }
  if (!normalizer.has_header()) {
    return Status::ParseError("CSV input contains no header row");
  }
  EFES_RETURN_IF_ERROR(normalizer.shape_error());
  if (scanner.unterminated_quote()) {
    AddIssue(issues, "end of input",
             "unterminated quoted field closed at end of input");
  }
  if (issues != nullptr) {
    std::move(normalizer.issues().begin(), normalizer.issues().end(),
              std::back_inserter(*issues));
  }
  return Status::OK();
}

Result<CsvDocument> ParseCsv(std::string_view text,
                             const CsvReadOptions& options,
                             std::vector<DataIssue>* issues) {
  DocumentSink sink;
  EFES_RETURN_IF_ERROR(ScanCsv(text, options, sink, issues));
  return std::move(sink.doc);
}

Result<CsvDocument> ParseCsv(std::string_view text, char delimiter) {
  CsvReadOptions options;
  options.delimiter = delimiter;
  return ParseCsv(text, options, nullptr);
}

std::string WriteCsv(const CsvDocument& doc, char delimiter) {
  std::string out;
  auto append_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(delimiter);
      AppendCell(out, row[i], delimiter);
    }
    out.push_back('\n');
  };
  append_row(doc.header);
  for (const auto& row : doc.rows) append_row(row);
  return out;
}

Result<CsvDocument> ReadCsvFile(const std::string& path,
                                const CsvReadOptions& options,
                                std::vector<DataIssue>* issues) {
  EFES_RETURN_IF_ERROR(CheckFaultPoint("csv.read"));
  EFES_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  Result<CsvDocument> doc = ParseCsv(text, options, issues);
  if (!doc.ok()) {
    return Status(doc.status().code(),
                  doc.status().message() + " (" + path + ")");
  }
  return doc;
}

Result<CsvDocument> ReadCsvFile(const std::string& path, char delimiter) {
  CsvReadOptions options;
  options.delimiter = delimiter;
  return ReadCsvFile(path, options, nullptr);
}

Status WriteCsvFile(const CsvDocument& doc, const std::string& path,
                    char delimiter) {
  return WriteFileAtomic(path, WriteCsv(doc, delimiter));
}

// --- ChunkedCsvReader ------------------------------------------------------

void CsvRows::Append(const std::vector<std::string_view>& cells) {
  for (std::string_view cell : cells) {
    bytes_.append(cell);
    offsets_.push_back(bytes_.size());
  }
  ++rows_;
}

struct ChunkedCsvReader::Impl {
  // A block as the scanner fills it. `records` counts every record the
  // block spans, stored or not (a strict-mode shape error stops the
  // storing), because NextRows reads ahead until `block_rows` records
  // are pending. The repairs and the error wait here until NextRows
  // delivers the block.
  struct Block {
    explicit Block(size_t width) : rows(width) {}
    CsvRows rows;
    size_t records = 0;
    std::vector<DataIssue> issues;
    Status error;
  };

  // The scanner's sink: the first record is the header; every later one
  // is conformed to its width straight into the block being filled, and
  // a record past `block_rows` starts the next block.
  struct BlockQueue {
    void OnRecord(std::vector<std::string_view>& cells) {
      if (!has_header) {
        has_header = true;
        header.assign(cells.begin(), cells.end());
        return;
      }
      ++records_seen;
      ++pending_records;
      if (blocks.empty() || blocks.back().records == block_rows) {
        blocks.emplace_back(header.size());
      }
      Block& block = blocks.back();
      ++block.records;
      if (stopped) return;
      block.error = NormalizeRecord(cells, header.size(), records_seen,
                                    recover, &block.issues);
      if (!block.error.ok()) {
        stopped = true;  // strict mode delivers nothing past this record
        return;
      }
      block.rows.Append(cells);
    }

    bool recover = false;
    size_t block_rows = 0;
    bool has_header = false;
    std::vector<std::string> header;
    size_t records_seen = 0;     // data records scanned
    size_t pending_records = 0;  // of those, not yet delivered
    bool stopped = false;
    std::deque<Block> blocks;
  };

  Impl(const CsvReadOptions& options, std::string path, size_t chunk_rows)
      : path(std::move(path)), scanner(options, queue) {
    queue.recover = options.mode == CsvReadOptions::Mode::kRecover;
    queue.block_rows = chunk_rows == 0 ? options.max_rows : chunk_rows;
  }
  // The scanner refers to `queue`, so an Impl never copies or moves.
  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;

  // Appends " (path)" the way ReadCsvFile does, and latches the error so
  // every later NextRows repeats it.
  Status Fail(const Status& status) {
    error = Status(status.code(), status.message() + " (" + path + ")");
    return error;
  }

  // Reads one block from the file into the scanner; sets source_done and
  // finishes the scanner at end of file.
  Status Pump() {
    char buffer[1 << 16];
    stream.read(buffer, sizeof(buffer));
    const std::streamsize got = stream.gcount();
    if (stream.bad()) {
      return Fail(Status::Unavailable("read error"));
    }
    if (got > 0 &&
        !scanner.Feed(std::string_view(buffer, static_cast<size_t>(got)))) {
      return Fail(scanner.limit_error());
    }
    if (stream.eof()) {
      source_done = true;
      if (!scanner.Finish()) return Fail(scanner.limit_error());
    }
    return Status::OK();
  }

  const std::string path;
  std::ifstream stream;
  BlockQueue queue;  // before the scanner, which holds a reference
  CsvScanner<BlockQueue> scanner;
  bool source_done = false;
  bool quote_issue_reported = false;
  size_t rows_delivered = 0;
  Status error;
};

ChunkedCsvReader::ChunkedCsvReader(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
ChunkedCsvReader::ChunkedCsvReader(ChunkedCsvReader&&) noexcept = default;
ChunkedCsvReader& ChunkedCsvReader::operator=(ChunkedCsvReader&&) noexcept =
    default;
ChunkedCsvReader::~ChunkedCsvReader() = default;

Result<ChunkedCsvReader> ChunkedCsvReader::Open(const std::string& path,
                                                const CsvReadOptions& options,
                                                size_t chunk_rows) {
  EFES_RETURN_IF_ERROR(CheckFaultPoint("csv.read"));
  auto impl = std::make_unique<Impl>(options, path, chunk_rows);
  impl->stream.open(path, std::ios::binary);
  if (!impl->stream) {
    return Status::NotFound("cannot open: " + path);
  }
  while (!impl->queue.has_header && !impl->source_done) {
    EFES_RETURN_IF_ERROR(impl->Pump());
  }
  if (!impl->queue.has_header) {
    return impl->Fail(Status::ParseError("CSV input contains no header row"));
  }
  return ChunkedCsvReader(std::move(impl));
}

const std::vector<std::string>& ChunkedCsvReader::header() const {
  return impl_->queue.header;
}

Result<CsvRows> ChunkedCsvReader::NextRows(std::vector<DataIssue>* issues) {
  Impl& impl = *impl_;
  EFES_RETURN_IF_ERROR(impl.error);
  while (impl.queue.pending_records < impl.queue.block_rows &&
         !impl.source_done) {
    EFES_RETURN_IF_ERROR(impl.Pump());
  }
  if (impl.source_done && impl.scanner.unterminated_quote() &&
      !impl.quote_issue_reported) {
    impl.quote_issue_reported = true;
    if (!impl.queue.recover) {
      return impl.Fail(Status::ParseError("unterminated quoted CSV field"));
    }
    AddIssue(issues, "end of input",
             "unterminated quoted field closed at end of input");
  }
  std::deque<Impl::Block>& blocks = impl.queue.blocks;
  if (blocks.empty()) return CsvRows(impl.queue.header.size());
  Impl::Block& block = blocks.front();
  if (issues != nullptr) {
    std::move(block.issues.begin(), block.issues.end(),
              std::back_inserter(*issues));
  }
  if (!block.error.ok()) return impl.Fail(block.error);
  CsvRows rows = std::move(block.rows);
  impl.queue.pending_records -= block.records;
  blocks.pop_front();
  impl.rows_delivered += rows.size();
  return rows;
}

Result<std::vector<std::vector<std::string>>> ChunkedCsvReader::NextChunk(
    std::vector<DataIssue>* issues) {
  EFES_ASSIGN_OR_RETURN(CsvRows block, NextRows(issues));
  std::vector<std::vector<std::string>> rows(block.size());
  for (size_t r = 0; r < block.size(); ++r) {
    rows[r].reserve(block.width());
    for (size_t c = 0; c < block.width(); ++c) {
      rows[r].emplace_back(block.cell(r, c));
    }
  }
  return rows;
}

bool ChunkedCsvReader::done() const {
  return impl_->source_done && impl_->queue.blocks.empty();
}

size_t ChunkedCsvReader::rows_delivered() const {
  return impl_->rows_delivered;
}

}  // namespace efes
