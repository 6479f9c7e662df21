#include "efes/relational/table.h"

#include <map>
#include <sstream>
#include <unordered_set>

namespace efes {

Table::Table(RelationDef def) : def_(std::move(def)) {
  columns_.resize(def_.attribute_count());
}

Status Table::AppendRow(std::vector<Value> row) {
  if (row.size() != def_.attribute_count()) {
    std::ostringstream oss;
    oss << "row arity " << row.size() << " does not match relation '"
        << def_.name() << "' with " << def_.attribute_count()
        << " attributes";
    return Status::InvalidArgument(oss.str());
  }
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

size_t Table::DistinctCount(size_t column) const {
  std::unordered_set<Value, ValueHash> distinct;
  for (const Value& value : columns_[column]) {
    if (!value.is_null()) distinct.insert(value);
  }
  return distinct.size();
}

std::vector<Value> Table::DistinctValues(size_t column) const {
  std::unordered_set<Value, ValueHash> distinct;
  for (const Value& value : columns_[column]) {
    if (!value.is_null()) distinct.insert(value);
  }
  return std::vector<Value>(distinct.begin(), distinct.end());
}

size_t Table::CountCastableTo(size_t column, DataType target) const {
  size_t castable = 0;
  for (const Value& value : columns_[column]) {
    if (!value.is_null() && value.CanCastTo(target)) ++castable;
  }
  return castable;
}

std::unordered_map<Value, size_t, ValueHash> Table::ValueFrequencies(
    size_t column) const {
  std::unordered_map<Value, size_t, ValueHash> frequencies;
  for (const Value& value : columns_[column]) {
    if (!value.is_null()) ++frequencies[value];
  }
  return frequencies;
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
