// Column-oriented relation instances.
//
// The EFES detectors only ever run read-heavy analytical passes (distinct
// counts, null counts, per-value group cardinalities), so the storage is
// column-major. This stands in for the PostgreSQL instance the original
// prototype queried: the same statistics are computed, just in-process.

#ifndef EFES_RELATIONAL_TABLE_H_
#define EFES_RELATIONAL_TABLE_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "efes/common/result.h"
#include "efes/relational/schema.h"
#include "efes/relational/value.h"

namespace efes {

class Table {
 public:
  explicit Table(RelationDef def);

  const RelationDef& def() const { return def_; }
  const std::string& name() const { return def_.name(); }
  size_t row_count() const { return row_count_; }
  size_t column_count() const { return columns_.size(); }

  /// Appends one row. The row must have one value per attribute; each
  /// non-null value must be castable to the attribute type and is stored
  /// in canonical (cast) form.
  Status AppendRow(std::vector<Value> row);

  /// Fails unless `header` names the attributes, in order.
  Status CheckCsvHeader(const std::vector<std::string_view>& header) const;

  /// Appends one CSV data row: an empty cell is NULL, any other cell is
  /// cast from text to its attribute type (Value::CastText). A failed
  /// append leaves the table unchanged.
  Status AppendCsvRow(const std::vector<std::string_view>& cells);

  /// Reserves column capacity for `rows` rows in total.
  void Reserve(size_t rows);

  /// Removes the rows at the given indices (out-of-range entries are
  /// ignored; duplicates are fine). Used by the integration executor's
  /// repair operations.
  void RemoveRows(const std::vector<size_t>& rows);

  /// Cell accessors; bounds are the caller's responsibility.
  const Value& at(size_t row, size_t column) const {
    return columns_[column][row];
  }
  Value& at(size_t row, size_t column) { return columns_[column][row]; }

  /// The full column vector for attribute index `column`.
  const std::vector<Value>& column(size_t column) const {
    return columns_[column];
  }

  /// Column by attribute name; kNotFound when no such attribute.
  Result<const std::vector<Value>*> ColumnByName(
      std::string_view attribute) const;

  /// Materializes one row (by copy).
  std::vector<Value> Row(size_t row) const;

  // --- Analytics used by the detectors -----------------------------------

  /// Number of NULLs in the column.
  size_t NullCount(size_t column) const;

  /// The distinct non-null values of the column (unspecified order).
  std::vector<Value> DistinctValues(size_t column) const;

  /// Number of rows whose projection onto `columns` (ignoring rows with
  /// any NULL among them) occurs more than once — i.e. uniqueness
  /// violations under SQL semantics.
  size_t CountDuplicateProjections(const std::vector<size_t>& columns) const;

  /// True when the projection onto `columns` is duplicate-free (NULL rows
  /// exempt).
  bool IsUnique(const std::vector<size_t>& columns) const;

 private:
  RelationDef def_;
  size_t row_count_ = 0;
  // columns_[c][r] is the value of attribute c in row r.
  std::vector<std::vector<Value>> columns_;
};

/// Appends the projection-key encoding of one cell to `key`: NULL as
/// "N", any other value as "<size>:<rendering>" of its ToString(). The
/// length prefix makes every encoding self-delimiting, so no byte inside
/// a value can move a field boundary, and NULL never collides with the
/// text "NULL". Keys of equal-arity projections are equal exactly when
/// their cells render equally.
void AppendProjectionKey(const Value& value, std::string* key);

/// The key of `row` projected onto `columns`, or nullopt when a projected
/// cell is NULL (SQL key semantics: NULL keys are exempt).
std::optional<std::string> ProjectionKey(const Table& table, size_t row,
                                         const std::vector<size_t>& columns);

}  // namespace efes

#endif  // EFES_RELATIONAL_TABLE_H_
