// The dynamically typed cell value of the relational substrate.
//
// EFES analyzes heterogeneous databases, so a single static row type is
// not an option: the same attribute may hold integers in one source and
// formatted strings in another (the paper's length-vs-duration example).
// Value is a small tagged union over NULL, boolean, 64-bit integer,
// double, and string, with explicit casting rules that mirror what the
// value-fit detector needs ("values that cannot be cast to the target
// attribute's datatype", Section 5.1).

#ifndef EFES_RELATIONAL_VALUE_H_
#define EFES_RELATIONAL_VALUE_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "efes/common/result.h"

namespace efes {

/// Datatypes supported by the relational substrate. kNull is the type of
/// the SQL NULL literal only; attributes always have a concrete type.
enum class DataType {
  kNull = 0,
  kBoolean,
  kInteger,
  kReal,
  kText,
};

/// Canonical lowercase type name ("integer", "text", ...).
std::string_view DataTypeToString(DataType type);

class Value {
 public:
  /// Constructs NULL.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Boolean(bool v) { return Value(std::in_place_type<bool>, v); }
  static Value Integer(int64_t v) {
    return Value(std::in_place_type<int64_t>, v);
  }
  static Value Real(double v) { return Value(std::in_place_type<double>, v); }
  static Value Text(std::string v) {
    return Value(std::in_place_type<std::string>, std::move(v));
  }

  Value(const Value&) = default;
  Value& operator=(const Value&) = default;
  Value(Value&&) = default;
  Value& operator=(Value&&) = default;

  DataType type() const;
  bool is_null() const { return type() == DataType::kNull; }

  /// Typed accessors; calling the wrong one is a programming error
  /// (enforced by assert in debug builds, undefined in release).
  bool AsBoolean() const { return std::get<bool>(data_); }
  int64_t AsInteger() const { return std::get<int64_t>(data_); }
  double AsReal() const { return std::get<double>(data_); }
  const std::string& AsText() const { return std::get<std::string>(data_); }

  /// Returns the value as a double regardless of numeric representation.
  /// Requires type() to be kInteger or kReal.
  double NumericValue() const;

  /// True if the value is losslessly representable in `target`:
  /// - NULL casts to anything;
  /// - integer -> real -> text always cast;
  /// - text casts to integer/real only if it parses completely;
  /// - boolean casts to text and integer.
  bool CanCastTo(DataType target) const;

  /// Text(text).CanCastTo(target), without building the text value.
  static bool TextCastsTo(std::string_view text, DataType target);

  /// Performs the cast; fails with kTypeMismatch when CanCastTo is false.
  Result<Value> CastTo(DataType target) const;

  /// Text(text).CastTo(target), parsing `text` once and without building
  /// the intermediate text value. This is how CSV cells become typed.
  static Result<Value> CastText(std::string_view text, DataType target);

  /// Human-readable rendering; NULL renders as "NULL", text verbatim.
  std::string ToString() const;

  /// Total order used for sorting and grouping: NULL < booleans <
  /// numerics (compared by value across kInteger/kReal) < text.
  friend bool operator<(const Value& a, const Value& b);
  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Hash consistent with operator== (numeric 3 == 3.0 hash equal). A
  /// text value hashes as std::hash<std::string_view> of its bytes.
  size_t Hash() const;

 private:
  using Payload =
      std::variant<std::monostate, bool, int64_t, double, std::string>;
  /// Builds the payload in place. Moving a temporary variant into data_
  /// instead makes GCC 12 report its string alternative as maybe
  /// uninitialized under -fsanitize=address.
  template <typename T, typename Arg>
  Value(std::in_place_type_t<T> type, Arg&& arg)
      : data_(type, std::forward<Arg>(arg)) {}

  Payload data_;
};

std::ostream& operator<<(std::ostream& os, const Value& value);

/// std::hash adapter so Value works in unordered containers. With
/// ValueEqual it is transparent: a container keyed by Value can be
/// probed with a string_view, which stands for the text value of the
/// same bytes, without building that value.
struct ValueHash {
  using is_transparent = void;
  size_t operator()(const Value& v) const { return v.Hash(); }
  size_t operator()(std::string_view text) const {
    return std::hash<std::string_view>()(text);
  }
};

/// operator==, extended to a string_view standing for a text value.
struct ValueEqual {
  using is_transparent = void;
  bool operator()(const Value& a, const Value& b) const { return a == b; }
  bool operator()(const Value& a, std::string_view b) const {
    return a.type() == DataType::kText && a.AsText() == b;
  }
  bool operator()(std::string_view a, const Value& b) const {
    return b.type() == DataType::kText && b.AsText() == a;
  }
};

}  // namespace efes

#endif  // EFES_RELATIONAL_VALUE_H_
