// Tests for the CSV reader/writer.

#include "efes/common/csv.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "csv_reference.h"
#include "efes/common/file_io.h"
#include "test_paths.h"

namespace efes {
namespace {

TEST(CsvTest, ParsesSimpleDocument) {
  auto doc = ParseCsv("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->header, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(doc->rows.size(), 2u);
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(doc->rows[1], (std::vector<std::string>{"4", "5", "6"}));
}

TEST(CsvTest, HandlesMissingTrailingNewline) {
  auto doc = ParseCsv("a,b\n1,2");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0][1], "2");
}

TEST(CsvTest, HandlesCrLf) {
  auto doc = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0][0], "1");
}

TEST(CsvTest, ParsesQuotedFields) {
  auto doc = ParseCsv("a,b\n\"hello, world\",\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0][0], "hello, world");
  EXPECT_EQ(doc->rows[0][1], "say \"hi\"");
}

TEST(CsvTest, ParsesEmbeddedNewlineInQuotes) {
  auto doc = ParseCsv("a\n\"line1\nline2\"\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0][0], "line1\nline2");
}

TEST(CsvTest, EmptyCellsPreserved) {
  auto doc = ParseCsv("a,b,c\n,,\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"", "", ""}));
}

TEST(CsvTest, RejectsArityMismatch) {
  auto doc = ParseCsv("a,b\n1,2,3\n");
  EXPECT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  auto doc = ParseCsv("a\n\"oops\n");
  EXPECT_FALSE(doc.ok());
}

TEST(CsvTest, MixedCrLfAndLfLineEndings) {
  auto doc = ParseCsv("a,b\r\n1,2\n3,4\r\n5,6");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 3u);
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(doc->rows[1], (std::vector<std::string>{"3", "4"}));
  EXPECT_EQ(doc->rows[2], (std::vector<std::string>{"5", "6"}));
}

TEST(CsvTest, LoneCrEndsRecord) {
  auto doc = ParseCsv("a,b\r1,2\r");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvTest, CrLfInsideQuotesIsPreserved) {
  auto doc = ParseCsv("a\n\"x\r\ny\"\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0][0], "x\r\ny");
}

TEST(CsvTest, RejectsUnterminatedQuoteAtEof) {
  EXPECT_FALSE(ParseCsv("a\n\"oops").ok());
  EXPECT_FALSE(ParseCsv("a\n\"").ok());
  auto doc = ParseCsv("a\n\"trailing quote");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
}

TEST(CsvTest, EmptyTrailingFieldBeforeNewline) {
  auto doc = ParseCsv("a,b\n1,\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"1", ""}));
}

TEST(CsvTest, EmptyTrailingFieldAtEof) {
  auto doc = ParseCsv("a,b\n1,");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"1", ""}));
}

TEST(CsvTest, EmptyTrailingFieldWithCrLf) {
  auto doc = ParseCsv("a,b\r\n1,\r\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"1", ""}));
}

TEST(CsvTest, QuotedEmptyTrailingField) {
  auto doc = ParseCsv("a,b\n1,\"\"\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"1", ""}));
}

TEST(CsvTest, RejectsEmptyInput) {
  EXPECT_FALSE(ParseCsv("").ok());
}

TEST(CsvTest, CustomDelimiter) {
  auto doc = ParseCsv("a;b\n1;2\n", ';');
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0][1], "2");
}

TEST(CsvTest, WriteQuotesOnlyWhenNeeded) {
  CsvDocument doc;
  doc.header = {"plain", "with,comma", "with\"quote"};
  doc.rows = {{"v", "a,b", "x\"y"}};
  std::string text = WriteCsv(doc);
  EXPECT_EQ(text,
            "plain,\"with,comma\",\"with\"\"quote\"\n"
            "v,\"a,b\",\"x\"\"y\"\n");
}

TEST(CsvTest, RoundTripPreservesContent) {
  CsvDocument doc;
  doc.header = {"title", "notes"};
  doc.rows = {{"Sweet Home Alabama", "4:43"},
              {"contains, comma", "multi\nline"},
              {"", "\"quoted\""}};
  auto parsed = ParseCsv(WriteCsv(doc));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header, doc.header);
  EXPECT_EQ(parsed->rows, doc.rows);
}

TEST(CsvTest, FileRoundTrip) {
  CsvDocument doc;
  doc.header = {"a", "b"};
  doc.rows = {{"1", "2"}, {"3", ""}};
  const ScopedScratchPath file("efes_csv_test");
  ASSERT_TRUE(WriteCsvFile(doc, file.path()).ok());
  auto read = ReadCsvFile(file.path());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->rows, doc.rows);
}

TEST(CsvTest, ReadMissingFileFails) {
  auto result = ReadCsvFile("/nonexistent/path/data.csv");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

CsvReadOptions RecoverOptions() {
  CsvReadOptions options;
  options.mode = CsvReadOptions::Mode::kRecover;
  return options;
}

TEST(CsvRecoverTest, PadsShortRows) {
  std::vector<DataIssue> issues;
  auto doc = ParseCsv("a,b,c\n1,2\n4,5,6\n", RecoverOptions(), &issues);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_EQ(doc->rows.size(), 2u);
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"1", "2", ""}));
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].location, "row 1");
}

TEST(CsvRecoverTest, TruncatesLongRows) {
  std::vector<DataIssue> issues;
  auto doc = ParseCsv("a,b\n1,2,3,4\n", RecoverOptions(), &issues);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"1", "2"}));
  ASSERT_EQ(issues.size(), 1u);
}

TEST(CsvRecoverTest, ClosesUnterminatedQuoteAtEof) {
  std::vector<DataIssue> issues;
  auto doc = ParseCsv("a\n\"oops", RecoverOptions(), &issues);
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0][0], "oops");
  EXPECT_FALSE(issues.empty());
}

TEST(CsvRecoverTest, NullIssueListIsAccepted) {
  auto doc = ParseCsv("a,b\n1\n", RecoverOptions(), nullptr);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"1", ""}));
}

TEST(CsvRecoverTest, CleanInputYieldsNoIssues) {
  std::vector<DataIssue> issues;
  auto doc = ParseCsv("a,b\n1,2\n", RecoverOptions(), &issues);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(issues.empty());
}

TEST(CsvGuardTest, OversizedFieldIsResourceExhausted) {
  CsvReadOptions options;
  options.max_field_bytes = 8;
  std::string text = "a\nthis-cell-is-longer-than-eight-bytes\n";
  auto strict = ParseCsv(text, options);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kResourceExhausted);
  // The guard is not repairable: recover mode fails identically.
  options.mode = CsvReadOptions::Mode::kRecover;
  auto recover = ParseCsv(text, options);
  ASSERT_FALSE(recover.ok());
  EXPECT_EQ(recover.status().code(), StatusCode::kResourceExhausted);
}

TEST(CsvGuardTest, TooManyRowsIsResourceExhausted) {
  CsvReadOptions options;
  options.max_rows = 3;  // header + two data rows
  EXPECT_TRUE(ParseCsv("a\n1\n2\n", options).ok());
  auto over = ParseCsv("a\n1\n2\n3\n", options);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
}

TEST(CsvGuardTest, DefaultLimitsAcceptNormalDocuments) {
  auto doc = ParseCsv("a,b\n1,2\n", CsvReadOptions{});
  EXPECT_TRUE(doc.ok());
}

// --- Chunked streaming reader ---------------------------------------------

ScopedScratchPath ChunkedScratchFile(const std::string& tag,
                                     std::string_view text) {
  ScopedScratchPath file("efes_csv_chunked_" + tag);
  EXPECT_TRUE(WriteFileAtomic(file.path(), text).ok());
  return file;
}

using Rows = std::vector<std::vector<std::string>>;

/// The two calls that read a block: NextRows (flat) and NextChunk (one
/// string per cell). Every chunked test reads through both.
enum class Via { kRows, kChunk };
constexpr Via kVias[] = {Via::kRows, Via::kChunk};

std::string ViaName(Via via) {
  return via == Via::kRows ? "NextRows" : "NextChunk";
}

/// The next block through `via`, as one string per cell.
Result<Rows> NextBlock(ChunkedCsvReader& reader, Via via,
                       std::vector<DataIssue>* issues = nullptr) {
  if (via == Via::kChunk) return reader.NextChunk(issues);
  EFES_ASSIGN_OR_RETURN(CsvRows block, reader.NextRows(issues));
  EXPECT_EQ(block.width(), reader.header().size());
  Rows rows(block.size());
  for (size_t r = 0; r < block.size(); ++r) {
    for (size_t c = 0; c < block.width(); ++c) {
      rows[r].emplace_back(block.cell(r, c));
    }
  }
  return rows;
}

/// Drains the reader and returns every delivered row, in order.
Result<Rows> DrainChunks(ChunkedCsvReader& reader, Via via,
                         std::vector<DataIssue>* issues = nullptr) {
  Rows rows;
  while (!reader.done()) {
    EFES_ASSIGN_OR_RETURN(Rows chunk, NextBlock(reader, via, issues));
    rows.insert(rows.end(), chunk.begin(), chunk.end());
  }
  return rows;
}

TEST(CsvGuardTest, FieldLimitIsExactInsideAndOutsideQuotes) {
  // Cells reach the limit through one run of plain bytes, through runs
  // split by a literal mid-cell quote, and inside quotes through runs
  // split by a doubled quote. The limit itself is accepted; one more
  // byte fails with the message the scanner has always produced.
  CsvReadOptions options;
  options.max_field_bytes = 8;
  const std::string expected_error =
      "CSV field in record 2 exceeds the field limit of 8 bytes";
  struct Case {
    std::string at_limit;
    std::string over_limit;
    std::string value;  // the parsed at-limit cell
  };
  const std::vector<Case> cases = {
      {"abcdefgh", "abcdefghi", "abcdefgh"},
      {"abc\"defg", "abc\"defgh", "abc\"defg"},
      {"\"abcdefgh\"", "\"abcdefghi\"", "abcdefgh"},
      {"\"a,c\n\r\nfg\"", "\"a,c\n\r\nfgh\"", "a,c\n\r\nfg"},
      {"\"ab\"\"cdefg\"", "\"ab\"\"cdefgh\"", "ab\"cdefg"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.at_limit);
    const std::string fits = "x,y\n" + c.at_limit + ",1\n";
    const std::string over = "x,y\n" + c.over_limit + ",1\n";
    auto accepted = ParseCsv(fits, options);
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
    EXPECT_EQ(accepted->rows[0][0], c.value);
    auto rejected = ParseCsv(over, options);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(rejected.status().message(), expected_error);

    const ScopedScratchPath fits_file = ChunkedScratchFile("limit_fits", fits);
    auto reader = ChunkedCsvReader::Open(fits_file.path(), options, 0);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    auto rows = DrainChunks(*reader, Via::kRows);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(*rows, accepted->rows);
    const ScopedScratchPath over_file = ChunkedScratchFile("limit_over", over);
    auto failed = ChunkedCsvReader::Open(over_file.path(), options, 0);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().message(),
              expected_error + " (" + over_file.path() + ")");
  }
}

TEST(ChunkedCsvTest, DeliversAllRowsInOrderForAnyChunkSize) {
  std::string text = "id,name\n";
  for (int i = 0; i < 100; ++i) {
    text += std::to_string(i) + ",row-" + std::to_string(i) + "\n";
  }
  const ScopedScratchPath file = ChunkedScratchFile("sizes", text);
  auto whole = ParseCsv(text);
  ASSERT_TRUE(whole.ok());
  for (size_t chunk_rows : {size_t{1}, size_t{3}, size_t{7}, size_t{100},
                            size_t{1000}, size_t{0}}) {
    for (Via via : kVias) {
      SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows) + " " +
                   ViaName(via));
      auto reader =
          ChunkedCsvReader::Open(file.path(), CsvReadOptions{}, chunk_rows);
      ASSERT_TRUE(reader.ok()) << reader.status().ToString();
      EXPECT_EQ(reader->header(), whole->header);
      auto rows = DrainChunks(*reader, via);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_EQ(*rows, whole->rows);
      EXPECT_TRUE(reader->done());
      EXPECT_EQ(reader->rows_delivered(), whole->rows.size());
    }
  }
}

TEST(ChunkedCsvTest, QuotedNewlinesAndCrLfStraddleChunkBoundaries) {
  // Embedded newlines, CRLF terminators, doubled quotes, and embedded
  // delimiters — every feature that makes "one row" span raw-byte
  // boundaries the block reader cannot see.
  const std::string text =
      "title,notes\r\n"
      "\"multi\nline\",\"a,b\"\r\n"
      "\"he said \"\"hi\"\"\",plain\r\n"
      "last,\"trailing\r\nbreak\"\r\n";
  const ScopedScratchPath file = ChunkedScratchFile("straddle", text);
  auto whole = ParseCsv(text);
  ASSERT_TRUE(whole.ok());
  for (size_t chunk_rows : {size_t{1}, size_t{2}}) {
    for (Via via : kVias) {
      SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows) + " " +
                   ViaName(via));
      auto reader =
          ChunkedCsvReader::Open(file.path(), CsvReadOptions{}, chunk_rows);
      ASSERT_TRUE(reader.ok());
      auto rows = DrainChunks(*reader, via);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_EQ(*rows, whole->rows);
    }
  }
}

TEST(ChunkedCsvTest, EveryBlockSplitOfQuotedCrLfInputYieldsTheSameRecords) {
  // The reader feeds the scanner 64 KiB blocks. Padding the first row
  // moves that block boundary across every byte of a window holding
  // quoted newlines, doubled quotes, empty quoted cells and CRLF ends.
  const std::string window =
      "\"he said \"\"hi\"\"\",\"\"\r\n"
      "\"multi\r\nline\",\"a,b\"\r\n"
      "plain,\"\"\"\"\r\n";
  constexpr size_t kBlock = size_t{1} << 16;
  for (size_t offset = 0; offset <= window.size(); ++offset) {
    SCOPED_TRACE("boundary at window byte " + std::to_string(offset));
    // "title,notes\r\n" + "<pad>,x\r\n" puts the window at kBlock - offset.
    const size_t pad = kBlock - offset - 13 - 4;
    const std::string text = "title,notes\r\n" + std::string(pad, 'p') +
                             ",x\r\n" + window + "last,row\r\n";
    ASSERT_EQ(text.find(window), kBlock - offset);
    auto whole = ParseCsv(text);
    ASSERT_TRUE(whole.ok()) << whole.status().ToString();
    ASSERT_EQ(whole->rows.size(), 5u);
    const ScopedScratchPath file = ChunkedScratchFile("split", text);
    for (Via via : kVias) {
      SCOPED_TRACE(ViaName(via));
      auto reader = ChunkedCsvReader::Open(file.path(), CsvReadOptions{}, 2);
      ASSERT_TRUE(reader.ok()) << reader.status().ToString();
      auto rows = DrainChunks(*reader, via);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_EQ(*rows, whole->rows);
    }
  }
}

TEST(ChunkedCsvTest, StrictShapeErrorIsSticky) {
  const ScopedScratchPath file =
      ChunkedScratchFile("sticky", "a,b\n1,2\n3,4\nonly-one-cell\n5,6\n");
  for (Via via : kVias) {
    SCOPED_TRACE(ViaName(via));
    auto reader = ChunkedCsvReader::Open(file.path(), CsvReadOptions{}, 1);
    ASSERT_TRUE(reader.ok());
    auto first = NextBlock(*reader, via);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(*first, (Rows{{"1", "2"}}));
    auto second = NextBlock(*reader, via);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(*second, (Rows{{"3", "4"}}));
    auto bad = NextBlock(*reader, via);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().message(),
              "CSV row 3 has 1 cells, expected 2 (" + file.path() + ")");
    EXPECT_EQ(reader->rows_delivered(), 2u);
    // Sticky: the reader never recovers past a strict-mode failure.
    auto again = NextBlock(*reader, via);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(bad.status().code(), again.status().code());
    EXPECT_EQ(bad.status().message(), again.status().message());
  }
}

TEST(ChunkedCsvTest, RecoverModeRepairsAcrossChunks) {
  const std::string text = "a,b\n1\n2,3,4\n5,6\n";
  const ScopedScratchPath file = ChunkedScratchFile("recover", text);
  std::vector<DataIssue> whole_issues;
  auto whole = ParseCsv(text, RecoverOptions(), &whole_issues);
  ASSERT_TRUE(whole.ok());
  ASSERT_EQ(whole_issues.size(), 2u);
  for (Via via : kVias) {
    SCOPED_TRACE(ViaName(via));
    auto reader = ChunkedCsvReader::Open(file.path(), RecoverOptions(), 2);
    ASSERT_TRUE(reader.ok());
    std::vector<DataIssue> issues;
    auto rows = DrainChunks(*reader, via, &issues);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(*rows, (Rows{{"1", ""}, {"2", "3"}, {"5", "6"}}));
    EXPECT_EQ(RenderDataIssues(issues), RenderDataIssues(whole_issues));
  }
}

TEST(ChunkedCsvTest, MissingFileFailsAtOpen) {
  auto reader = ChunkedCsvReader::Open("/nonexistent/stream.csv",
                                       CsvReadOptions{}, 8);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
}

TEST(ChunkedCsvTest, RowLimitIsEnforced) {
  CsvReadOptions options;
  options.max_rows = 3;  // header + two data rows
  const ScopedScratchPath file =
      ChunkedScratchFile("limit", "a\n1\n2\n3\n4\n");
  // The guard trips wherever the scanner first sees the excess row —
  // here inside Open, since the whole file fits the first block.
  for (Via via : kVias) {
    SCOPED_TRACE(ViaName(via));
    auto reader = ChunkedCsvReader::Open(file.path(), options, 1);
    if (reader.ok()) {
      auto rows = DrainChunks(*reader, via);
      ASSERT_FALSE(rows.ok());
      EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted);
    } else {
      EXPECT_EQ(reader.status().code(), StatusCode::kResourceExhausted);
    }
  }
}

/// A CSV of `rows` data rows, well over the reader's 64 KiB reads, whose
/// cells hold quoted delimiters, LF and CRLF newlines and doubled
/// quotes. With `misshapen`, every 97th row is short and every 89th
/// long.
std::string QuotedStressCsv(size_t rows, bool misshapen) {
  std::string text = "id,quoted,plain,notes\r\n";
  for (size_t i = 1; i <= rows; ++i) {
    const std::string n = std::to_string(i);
    text += n + ",\"a,b " + n + "\nnext\r\nline\",p" + n;
    if (misshapen && i % 97 == 0) {
      text += "\r\n";  // short: three cells
      continue;
    }
    text += ",\"say \"\"" + n + "\"\", then ,\"";
    if (misshapen && i % 89 == 0) text += ",extra";
    text += i % 2 == 0 ? "\r\n" : "\n";
  }
  return text;
}

TEST(ChunkedCsvTest, RecordsStraddlingReadsAndBlocksMatchTheWholeParse) {
  for (bool recover : {false, true}) {
    const std::string text = QuotedStressCsv(3000, recover);
    ASSERT_GT(text.size(), size_t{2} << 16);
    CsvReadOptions options;
    if (recover) options = RecoverOptions();
    std::vector<DataIssue> whole_issues;
    auto whole = ParseCsv(text, options, &whole_issues);
    ASSERT_TRUE(whole.ok()) << whole.status().ToString();
    ASSERT_EQ(whole->rows.size(), 3000u);
    EXPECT_EQ(whole_issues.empty(), !recover);
    const ScopedScratchPath file = ChunkedScratchFile("stress", text);
    for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{1000}, size_t{0}}) {
      for (Via via : kVias) {
        SCOPED_TRACE(std::string(recover ? "recover" : "strict") +
                     " chunk_rows=" + std::to_string(chunk_rows) + " " +
                     ViaName(via));
        auto reader = ChunkedCsvReader::Open(file.path(), options, chunk_rows);
        ASSERT_TRUE(reader.ok()) << reader.status().ToString();
        EXPECT_EQ(reader->header(), whole->header);
        std::vector<DataIssue> issues;
        auto rows = DrainChunks(*reader, via, &issues);
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        EXPECT_EQ(*rows, whole->rows);
        EXPECT_EQ(RenderDataIssues(issues), RenderDataIssues(whole_issues));
      }
    }
  }
  // Strict mode stops at the first misshapen row, row 89: each call
  // delivers the same rows before it, and then the same error.
  const std::string text = QuotedStressCsv(3000, true);
  const ScopedScratchPath file = ChunkedScratchFile("stress_strict", text);
  for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{1000}, size_t{0}}) {
    for (Via via : kVias) {
      SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows) + " " +
                   ViaName(via));
      auto reader =
          ChunkedCsvReader::Open(file.path(), CsvReadOptions{}, chunk_rows);
      ASSERT_TRUE(reader.ok()) << reader.status().ToString();
      auto rows = DrainChunks(*reader, via);
      ASSERT_FALSE(rows.ok());
      EXPECT_EQ(rows.status().message(),
                "CSV row 89 has 5 cells, expected 4 (" + file.path() + ")");
      const size_t block = chunk_rows == 0 ? 3000 : chunk_rows;
      EXPECT_EQ(reader->rows_delivered(), 88 / block * block);
    }
  }
}

/// `length` plain cell bytes, cycling from `start` through bytes that
/// end no run under any delimiter tested here: bytes >= 0x80, 0x01,
/// 0x7f, and each break byte with its low bit flipped, the byte the
/// classic has-zero-byte trick borrows into.
std::string RunBytes(size_t length, size_t start) {
  static const std::string kPlain =
      "a\x80\xff\x01-:\x08#\x0c\x0b\xc3\xa9\x7fz\xfe\x81";
  std::string run;
  for (size_t i = 0; i < length; ++i) {
    run.push_back(kPlain[(start + i) % kPlain.size()]);
  }
  return run;
}

/// Three-cell records that put the delimiter, a literal quote, LF, CRLF
/// and a bare CR at every offset 0..17 of a run of plain bytes (every
/// offset mod 8, in a run's first word and in its second), a 0x01 byte
/// right after a delimiter, and quoted cells holding all of them. The
/// last record has no line end.
std::string WordOffsetRecords(char delimiter) {
  const std::string d(1, delimiter);
  std::string text;
  for (size_t length = 0; length <= 17; ++length) {
    const std::string f = RunBytes(length, length);
    const std::string g = RunBytes(length, length + 5);
    text += f + d + "m" + g + "\"q" + d + g + "\n";
    text += g + d + "\x01" + f + d + f + "\r\n";
    text += f + d + g + d + f + "\r";
  }
  for (size_t length : {0, 7, 8, 9}) {
    const std::string f = RunBytes(length, 3);
    text += "\"" + f + d + "\n\"\"" + f + "\"" + d + f + d + "\r\n";
  }
  return text + RunBytes(5, 1) + d + RunBytes(3, 2) + d + "end";
}

TEST(ChunkedCsvTest, BreakBytesAtEveryWordOffsetMatchTheByteScanner) {
  constexpr size_t kRead = size_t{1} << 16;  // the reader's read size
  for (char delimiter : {',', ';', '\t'}) {
    SCOPED_TRACE("delimiter " + std::to_string(delimiter));
    CsvReadOptions options;
    options.delimiter = delimiter;
    const std::string names =
        std::string(1, delimiter) + "h1" + delimiter + "h2\n";
    const std::string body = WordOffsetRecords(delimiter);
    const ReferenceCsv reference =
        ReferenceScanCsv("h0" + names + body, delimiter);
    ASSERT_FALSE(reference.unterminated_quote);
    const Rows expected(reference.records.begin() + 1,
                        reference.records.end());
    ASSERT_EQ(expected.size(), 18u * 3 + 4 + 1);
    for (const std::vector<std::string>& row : expected) {
      ASSERT_EQ(row.size(), 3u);
    }
    auto whole = ParseCsv("h0" + names + body, options);
    ASSERT_TRUE(whole.ok()) << whole.status().ToString();
    EXPECT_EQ(whole->rows, expected);
    // A header cell of padding puts the boundary between the reader's
    // first two reads at every byte of the body.
    for (size_t split = 0; split <= body.size(); ++split) {
      const ScopedScratchPath file = ChunkedScratchFile(
          "word_offsets",
          std::string(kRead - names.size() - split, 'p') + names + body);
      const std::vector<size_t> chunk_sizes =
          split == 0 ? std::vector<size_t>{1, 2, 3, 7, 0}
                     : std::vector<size_t>{1, 0};
      for (size_t chunk_rows : chunk_sizes) {
        for (Via via : kVias) {
          if (split != 0 && via != Via::kRows) continue;
          SCOPED_TRACE("split " + std::to_string(split) + " chunk_rows=" +
                       std::to_string(chunk_rows) + " " + ViaName(via));
          auto reader =
              ChunkedCsvReader::Open(file.path(), options, chunk_rows);
          ASSERT_TRUE(reader.ok()) << reader.status().ToString();
          auto rows = DrainChunks(*reader, via);
          ASSERT_TRUE(rows.ok()) << rows.status().ToString();
          ASSERT_EQ(*rows, expected);
        }
      }
    }
  }
}

}  // namespace
}  // namespace efes
