#include "efes/relational/database.h"

#include <map>
#include <set>
#include <sstream>
#include <unordered_set>

namespace efes {

std::string ConstraintViolation::ToString() const {
  std::ostringstream oss;
  oss << constraint.ToString() << ": " << violating_rows
      << " violating rows";
  return oss.str();
}

Database::Database(Schema schema) : schema_(std::move(schema)) {
  tables_.reserve(schema_.relations().size());
  for (const RelationDef& rel : schema_.relations()) {
    tables_.emplace_back(rel);
  }
}

Result<Database> Database::Create(Schema schema) {
  EFES_RETURN_IF_ERROR(schema.Validate());
  return Database(std::move(schema));
}

Result<const Table*> Database::table(std::string_view relation) const {
  for (const Table& t : tables_) {
    if (t.name() == relation) return &t;
  }
  return Status::NotFound("no table '" + std::string(relation) +
                          "' in database '" + name() + "'");
}

Result<Table*> Database::mutable_table(std::string_view relation) {
  for (Table& t : tables_) {
    if (t.name() == relation) return &t;
  }
  return Status::NotFound("no table '" + std::string(relation) +
                          "' in database '" + name() + "'");
}

size_t Database::TotalRowCount() const {
  size_t total = 0;
  for (const Table& t : tables_) total += t.row_count();
  return total;
}

namespace {

std::vector<size_t> ResolveColumns(const RelationDef& def,
                                   const std::vector<std::string>& names) {
  std::vector<size_t> columns;
  columns.reserve(names.size());
  for (const std::string& name : names) {
    columns.push_back(*def.AttributeIndex(name));
  }
  return columns;
}

}  // namespace

std::vector<ConstraintViolation> Database::FindConstraintViolations() const {
  std::vector<ConstraintViolation> violations;
  for (const Constraint& c : schema_.constraints()) {
    auto table_result = table(c.relation);
    if (!table_result.ok()) continue;  // Validate() would have caught this
    const Table& child = **table_result;
    std::vector<size_t> columns = ResolveColumns(child.def(), c.attributes);

    size_t violating = 0;
    switch (c.kind) {
      case ConstraintKind::kNotNull:
        violating = child.NullCount(columns[0]);
        break;
      case ConstraintKind::kUnique:
        violating = child.CountDuplicateProjections(columns);
        break;
      case ConstraintKind::kPrimaryKey: {
        violating = child.CountDuplicateProjections(columns);
        // PK also implies NOT NULL on all key columns.
        for (size_t r = 0; r < child.row_count(); ++r) {
          for (size_t col : columns) {
            if (child.at(r, col).is_null()) {
              ++violating;
              break;
            }
          }
        }
        break;
      }
      case ConstraintKind::kFunctionalDependency: {
        // Rows whose determinant group carries more than one distinct
        // dependent projection violate the FD. NULL determinants exempt.
        std::vector<size_t> dependent_columns =
            ResolveColumns(child.def(), c.referenced_attributes);
        std::map<std::string, std::set<std::string>> dependents_of;
        std::map<std::string, size_t> group_sizes;
        for (size_t r = 0; r < child.row_count(); ++r) {
          std::optional<std::string> lhs_key =
              ProjectionKey(child, r, columns);
          if (!lhs_key.has_value()) continue;
          std::string rhs_key;
          for (size_t col : dependent_columns) {
            AppendProjectionKey(child.at(r, col), &rhs_key);
          }
          dependents_of[*lhs_key].insert(std::move(rhs_key));
          ++group_sizes[*lhs_key];
        }
        for (const auto& [key, dependents] : dependents_of) {
          if (dependents.size() > 1) violating += group_sizes[key];
        }
        break;
      }
      case ConstraintKind::kForeignKey: {
        auto parent_result = table(c.referenced_relation);
        if (!parent_result.ok()) continue;
        const Table& parent = **parent_result;
        std::vector<size_t> parent_columns =
            ResolveColumns(parent.def(), c.referenced_attributes);
        std::unordered_set<std::string> parent_keys;
        for (size_t r = 0; r < parent.row_count(); ++r) {
          std::optional<std::string> key =
              ProjectionKey(parent, r, parent_columns);
          if (key.has_value()) parent_keys.insert(std::move(*key));
        }
        for (size_t r = 0; r < child.row_count(); ++r) {
          std::optional<std::string> key = ProjectionKey(child, r, columns);
          if (key.has_value() && parent_keys.count(*key) == 0) {
            ++violating;
          }
        }
        break;
      }
    }
    if (violating > 0) {
      violations.push_back(ConstraintViolation{c, violating});
    }
  }
  return violations;
}

bool Database::SatisfiesConstraints() const {
  return FindConstraintViolations().empty();
}

Status Database::LoadCsv(std::string_view relation, const CsvDocument& doc) {
  EFES_ASSIGN_OR_RETURN(Table * target, mutable_table(relation));
  std::vector<std::string_view> cells(doc.header.begin(), doc.header.end());
  EFES_RETURN_IF_ERROR(target->CheckCsvHeader(cells));
  target->Reserve(target->row_count() + doc.rows.size());
  for (const std::vector<std::string>& row : doc.rows) {
    cells.assign(row.begin(), row.end());
    EFES_RETURN_IF_ERROR(target->AppendCsvRow(cells));
  }
  return Status::OK();
}

Result<CsvDocument> Database::ExportCsv(std::string_view relation) const {
  EFES_ASSIGN_OR_RETURN(const Table* source, table(relation));
  CsvDocument doc;
  for (const AttributeDef& attr : source->def().attributes()) {
    doc.header.push_back(attr.name);
  }
  doc.rows.reserve(source->row_count());
  for (size_t r = 0; r < source->row_count(); ++r) {
    std::vector<std::string> row;
    row.reserve(source->column_count());
    for (size_t c = 0; c < source->column_count(); ++c) {
      const Value& value = source->at(r, c);
      row.push_back(value.is_null() ? "" : value.ToString());
    }
    doc.rows.push_back(std::move(row));
  }
  return doc;
}

}  // namespace efes
