#include "efes/relational/table.h"

#include <map>
#include <sstream>
#include <unordered_set>

namespace efes {

Table::Table(RelationDef def) : def_(std::move(def)) {
  columns_.resize(def_.attribute_count());
}

namespace {

Status CheckArity(const RelationDef& def, size_t cells) {
  if (cells == def.attribute_count()) return Status::OK();
  std::ostringstream oss;
  oss << "row arity " << cells << " does not match relation '" << def.name()
      << "' with " << def.attribute_count() << " attributes";
  return Status::InvalidArgument(oss.str());
}

}  // namespace

Status Table::AppendRow(std::vector<Value> row) {
  EFES_RETURN_IF_ERROR(CheckArity(def_, row.size()));
  // Validate castability first so a failed append leaves the table
  // unchanged.
  std::vector<Value> canonical;
  canonical.reserve(row.size());
  for (size_t c = 0; c < row.size(); ++c) {
    DataType target = def_.attributes()[c].type;
    EFES_ASSIGN_OR_RETURN(Value cast, row[c].CastTo(target));
    canonical.push_back(std::move(cast));
  }
  for (size_t c = 0; c < canonical.size(); ++c) {
    columns_[c].push_back(std::move(canonical[c]));
  }
  ++row_count_;
  return Status::OK();
}

Status Table::CheckCsvHeader(
    const std::vector<std::string_view>& header) const {
  if (header.size() != def_.attribute_count()) {
    return Status::InvalidArgument(
        "CSV header arity does not match relation '" + def_.name() + "'");
  }
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] != def_.attributes()[i].name) {
      return Status::InvalidArgument(
          "CSV header column '" + std::string(header[i]) +
          "' does not match attribute '" + def_.attributes()[i].name + "'");
    }
  }
  return Status::OK();
}

Status Table::AppendCsvRow(const std::vector<std::string_view>& cells) {
  EFES_RETURN_IF_ERROR(CheckArity(def_, cells.size()));
  for (size_t c = 0; c < cells.size(); ++c) {
    if (cells[c].empty()) {
      columns_[c].emplace_back();
      continue;
    }
    Result<Value> cast = Value::CastText(cells[c], def_.attributes()[c].type);
    if (!cast.ok()) {
      for (size_t appended = 0; appended < c; ++appended) {
        columns_[appended].pop_back();
      }
      return cast.status();
    }
    columns_[c].push_back(std::move(*cast));
  }
  ++row_count_;
  return Status::OK();
}

void Table::Reserve(size_t rows) {
  for (std::vector<Value>& column : columns_) column.reserve(rows);
}

void Table::RemoveRows(const std::vector<size_t>& rows) {
  if (rows.empty()) return;
  std::vector<bool> remove(row_count_, false);
  for (size_t row : rows) {
    if (row < row_count_) remove[row] = true;
  }
  for (auto& column : columns_) {
    size_t write = 0;
    for (size_t read = 0; read < row_count_; ++read) {
      if (!remove[read]) {
        if (write != read) column[write] = std::move(column[read]);
        ++write;
      }
    }
    column.resize(write);
  }
  size_t removed = 0;
  for (bool flag : remove) {
    if (flag) ++removed;
  }
  row_count_ -= removed;
}

Result<const std::vector<Value>*> Table::ColumnByName(
    std::string_view attribute) const {
  std::optional<size_t> index = def_.AttributeIndex(attribute);
  if (!index.has_value()) {
    return Status::NotFound("no attribute '" + std::string(attribute) +
                            "' in table '" + def_.name() + "'");
  }
  return &columns_[*index];
}

std::vector<Value> Table::Row(size_t row) const {
  std::vector<Value> result;
  result.reserve(columns_.size());
  for (const auto& column : columns_) {
    result.push_back(column[row]);
  }
  return result;
}

size_t Table::NullCount(size_t column) const {
  size_t nulls = 0;
  for (const Value& value : columns_[column]) {
    if (value.is_null()) ++nulls;
  }
  return nulls;
}

std::vector<Value> Table::DistinctValues(size_t column) const {
  std::unordered_set<Value, ValueHash> distinct;
  for (const Value& value : columns_[column]) {
    if (!value.is_null()) distinct.insert(value);
  }
  return std::vector<Value>(distinct.begin(), distinct.end());
}

size_t Table::CountDuplicateProjections(
    const std::vector<size_t>& columns) const {
  std::map<std::string, size_t> groups;
  for (size_t r = 0; r < row_count_; ++r) {
    std::optional<std::string> key = ProjectionKey(*this, r, columns);
    if (key.has_value()) ++groups[*key];
  }
  size_t duplicates = 0;
  for (const auto& [key, count] : groups) {
    if (count > 1) duplicates += count;  // all members of the group violate
  }
  return duplicates;
}

bool Table::IsUnique(const std::vector<size_t>& columns) const {
  return CountDuplicateProjections(columns) == 0;
}

void AppendProjectionKey(const Value& value, std::string* key) {
  if (value.is_null()) {
    *key += 'N';
    return;
  }
  const std::string repr = value.ToString();
  *key += std::to_string(repr.size());
  *key += ':';
  *key += repr;
}

std::optional<std::string> ProjectionKey(const Table& table, size_t row,
                                         const std::vector<size_t>& columns) {
  std::string key;
  for (size_t c : columns) {
    const Value& value = table.at(row, c);
    if (value.is_null()) return std::nullopt;
    AppendProjectionKey(value, &key);
  }
  return key;
}

}  // namespace efes
