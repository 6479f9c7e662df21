#include "csv_reference.h"

#include <utility>

namespace efes {

ReferenceCsv ReferenceScanCsv(std::string_view text, char delimiter) {
  ReferenceCsv out;
  std::vector<std::string> record;
  std::string cell;
  bool started = false;  // the open cell has a byte or an opening quote
  bool in_quotes = false;
  auto end_cell = [&] {
    record.push_back(std::move(cell));
    cell.clear();
    started = false;
  };
  auto end_record = [&] {
    end_cell();
    out.records.push_back(std::move(record));
    record.clear();
  };
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const bool next_is = i + 1 < text.size();
    if (in_quotes) {
      if (c != '"') {
        cell.push_back(c);
      } else if (next_is && text[i + 1] == '"') {
        cell.push_back('"');  // a doubled quote is one literal quote
        ++i;
      } else {
        in_quotes = false;  // the closing quote
      }
    } else if (c == '"' && !started) {
      in_quotes = true;
      started = true;
    } else if (c == delimiter) {
      end_cell();
    } else if (c == '\r') {
      if (next_is && text[i + 1] == '\n') ++i;  // CRLF ends one record
      end_record();
    } else if (c == '\n') {
      end_record();
    } else {
      cell.push_back(c);  // a quote inside an unquoted cell is literal
      started = true;
    }
  }
  out.unterminated_quote = in_quotes;
  if (!cell.empty() || !record.empty() || started) end_record();
  return out;
}

}  // namespace efes
