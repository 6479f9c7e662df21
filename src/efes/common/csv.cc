#include "efes/common/csv.h"

#include <algorithm>
#include <bit>
#include <cstdint>
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

constexpr uint64_t kEveryByte = 0x0101010101010101ull;
constexpr uint64_t kLow7Bits = 0x7f7f7f7f7f7f7f7full;

// The high bit of every zero byte of `word`, and no other bit. Exact for
// every byte: (byte & 0x7f) + 0x7f never carries into the next byte,
// unlike the classic (word - 0x01..01) & ~word & 0x80..80, whose borrow
// out of a zero byte also flags a 0x01 byte next to it.
constexpr uint64_t ZeroBytes(uint64_t word) {
  return ~(((word & kLow7Bits) + kLow7Bits) | word | kLow7Bits);
}

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "the run search reads 8-byte words in memory order");

// Index in memory order of the first byte ZeroBytes flagged.
size_t FirstFlaggedByte(uint64_t flags) {
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<size_t>(std::countr_zero(flags)) / 8;
  } else {
    return static_cast<size_t>(std::countl_zero(flags)) / 8;
  }
}

// Incremental RFC-4180 scanner shared by ScanCsv (one Feed over the whole
// text) and ChunkedCsvReader (repeated Feeds over file blocks). Because a
// quote escape ("") and a \r\n sequence can straddle a block boundary, the
// scanner defers those decisions with one-character pending flags instead
// of looking ahead, which makes it produce the exact same records for any
// split of the input.
//
// The scanner writes each record's cell bytes, back to back, straight
// into the buffer `sink.record_bytes()` names, so a record is copied
// once, from the input into wherever the sink keeps it. A completed
// record goes to `sink.OnRecord(cell_ends)`: the record's cells end at
// those offsets of that buffer, and the first begins where the scanner
// began writing it. After the call the scanner asks for the buffer
// again and starts the next record at its end, so the sink may move,
// cut or replace what it holds.
template <typename Sink>
class CsvScanner {
 public:
  CsvScanner(const CsvReadOptions& options, Sink& sink)
      : options_(options),
        sink_(sink),
        delimiters_(kEveryByte * static_cast<unsigned char>(options.delimiter)),
        out_(&sink.record_bytes()),
        cell_start_(out_->size()) {
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
  static constexpr uint64_t kQuotes = kEveryByte * '"';
  static constexpr uint64_t kCarriageReturns = kEveryByte * '\r';
  static constexpr uint64_t kLineFeeds = kEveryByte * '\n';

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

  // The first delimiter, quote, CR or LF in [next, end), or end: eight
  // bytes at a time, then byte by byte for the last few.
  const char* FindRunBreak(const char* next, const char* end) const {
    while (end - next >= 8) {
      uint64_t word = 0;
      std::memcpy(&word, next, sizeof(word));
      const uint64_t breaks =
          ZeroBytes(word ^ delimiters_) | ZeroBytes(word ^ kQuotes) |
          ZeroBytes(word ^ kCarriageReturns) | ZeroBytes(word ^ kLineFeeds);
      if (breaks != 0) return next + FirstFlaggedByte(breaks);
      next += 8;
    }
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

  size_t CellSize() const { return out_->size() - cell_start_; }

  void EndCell() {
    cell_ends_.push_back(out_->size());
    cell_start_ = out_->size();
    cell_started_ = false;
  }

  bool EndRecord() {
    EndCell();
    sink_.OnRecord(cell_ends_);
    cell_ends_.clear();
    out_ = &sink_.record_bytes();
    cell_start_ = out_->size();
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
    out_->append(bytes);
    return true;
  }

  const CsvReadOptions options_;
  Sink& sink_;
  const uint64_t delimiters_;  // the delimiter in every byte
  bool breaks_run_[256] = {};
  // The sink's buffer the open record is written to; cell_ends_ holds
  // each closed cell's end offset in it and cell_start_ the open cell's
  // start.
  std::string* out_;
  std::vector<size_t> cell_ends_;
  size_t cell_start_;
  bool in_quotes_ = false;
  bool cell_started_ = false;
  bool pending_quote_ = false;
  bool pending_cr_ = false;
  bool unterminated_quote_ = false;
  size_t total_records_ = 0;
  Status limit_error_;
};

// Checks a record of `cells` cells (data row `row_number`, 1-based)
// against the header width: strict mode fails; recover mode reports the
// repair the caller then makes (pad with empty cells or truncate).
Status CheckRecordShape(size_t cells, size_t header_size, size_t row_number,
                        bool recover, std::vector<DataIssue>* issues) {
  if (cells == header_size) return Status::OK();
  if (!recover) {
    std::ostringstream oss;
    oss << "CSV row " << row_number << " has " << cells
        << " cells, expected " << header_size;
    return Status::ParseError(oss.str());
  }
  std::ostringstream location;
  location << "row " << row_number;
  std::ostringstream oss;
  if (cells < header_size) {
    oss << "short row padded from " << cells << " to " << header_size
        << " cells";
  } else {
    oss << "long row truncated from " << cells << " to " << header_size
        << " cells";
  }
  AddIssue(issues, location.str(), oss.str());
  return Status::OK();
}

// ScanCsv's scanner sink: the first record is the header; every later
// one is conformed to its width and passed on, until a strict-mode shape
// error stops delivery.
class RowNormalizer {
 public:
  RowNormalizer(bool recover, CsvRowSink& sink)
      : recover_(recover), sink_(sink) {}

  std::string& record_bytes() { return record_; }

  void OnRecord(const std::vector<size_t>& cell_ends) {
    cells_.clear();
    size_t begin = 0;
    for (size_t cell_end : cell_ends) {
      cells_.emplace_back(record_.data() + begin, cell_end - begin);
      begin = cell_end;
    }
    Deliver();
    record_.clear();
  }

  bool has_header() const { return has_header_; }
  const Status& shape_error() const { return shape_error_; }
  std::vector<DataIssue>& issues() { return issues_; }

 private:
  void Deliver() {
    if (!has_header_) {
      has_header_ = true;
      header_size_ = cells_.size();
      sink_.OnHeader(cells_);
      return;
    }
    ++rows_;
    if (!shape_error_.ok()) return;
    shape_error_ = CheckRecordShape(cells_.size(), header_size_, rows_,
                                    recover_, &issues_);
    if (!shape_error_.ok()) return;
    cells_.resize(header_size_);
    sink_.OnRow(rows_, cells_);
  }

  const bool recover_;
  CsvRowSink& sink_;
  // The record being scanned, then its cells as views into it.
  std::string record_;
  std::vector<std::string_view> cells_;
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

void CsvRows::Append(const std::vector<size_t>& cell_ends) {
  const size_t kept = std::min(cell_ends.size(), width_);
  offsets_.insert(offsets_.end(), cell_ends.begin(),
                  cell_ends.begin() + static_cast<std::ptrdiff_t>(kept));
  if (kept < cell_ends.size()) bytes_.resize(offsets_.back());
  offsets_.resize(offsets_.size() + (width_ - kept), bytes_.size());
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

  // The scanner's sink. The scanner writes every record straight into
  // the bytes of the block being filled. The first record is the
  // header, copied out; every later one is conformed to its width in
  // place, or cut off again once strict mode stopped storing. A block
  // that holds `block_rows` records is queued, and the next record
  // starts a new one.
  struct BlockQueue {
    std::string& record_bytes() { return filling.rows.bytes_; }

    void OnRecord(const std::vector<size_t>& cell_ends) {
      CsvRows& rows = filling.rows;
      if (!has_header) {
        has_header = true;
        size_t begin = 0;
        for (size_t cell_end : cell_ends) {
          header.emplace_back(rows.bytes_, begin, cell_end - begin);
          begin = cell_end;
        }
        filling = Block(header.size());
        return;
      }
      ++records_seen;
      ++pending_records;
      ++filling.records;
      if (!stopped) {
        filling.error = CheckRecordShape(cell_ends.size(), header.size(),
                                         records_seen, recover,
                                         &filling.issues);
        // Strict mode delivers nothing past this record.
        stopped = !filling.error.ok();
      }
      if (stopped) {
        rows.bytes_.resize(rows.offsets_.back());
      } else {
        rows.Append(cell_ends);
      }
      if (filling.records == block_rows) Flush();
    }

    // Queues the block being filled, if it spans any record.
    void Flush() {
      if (filling.records == 0) return;
      blocks.push_back(std::move(filling));
      filling = Block(header.size());
    }

    bool recover = false;
    size_t block_rows = 0;
    bool has_header = false;
    std::vector<std::string> header;
    size_t records_seen = 0;     // data records scanned
    size_t pending_records = 0;  // of those, not yet delivered
    bool stopped = false;
    Block filling{0};
    std::deque<Block> blocks;  // full blocks, then the last one at the end
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
      const bool finished = scanner.Finish();
      queue.Flush();
      if (!finished) return Fail(scanner.limit_error());
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
