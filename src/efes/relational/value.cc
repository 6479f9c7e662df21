#include "efes/relational/value.h"

#include <cmath>
#include <optional>

#include "efes/common/string_util.h"

namespace efes {

namespace {

/// Rank of each type in the cross-type total order.
int TypeRank(DataType type) {
  switch (type) {
    case DataType::kNull:
      return 0;
    case DataType::kBoolean:
      return 1;
    case DataType::kInteger:
    case DataType::kReal:
      return 2;  // numerics compare with each other by value
    case DataType::kText:
      return 3;
  }
  return 4;
}

}  // namespace

std::string_view DataTypeToString(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "null";
    case DataType::kBoolean:
      return "boolean";
    case DataType::kInteger:
      return "integer";
    case DataType::kReal:
      return "real";
    case DataType::kText:
      return "text";
  }
  return "unknown";
}

DataType Value::type() const {
  switch (data_.index()) {
    case 0:
      return DataType::kNull;
    case 1:
      return DataType::kBoolean;
    case 2:
      return DataType::kInteger;
    case 3:
      return DataType::kReal;
    case 4:
      return DataType::kText;
  }
  return DataType::kNull;
}

double Value::NumericValue() const {
  if (type() == DataType::kInteger) {
    return static_cast<double>(AsInteger());
  }
  return AsReal();
}

bool Value::CanCastTo(DataType target) const {
  if (is_null()) return true;
  if (target == type()) return true;
  switch (type()) {
    case DataType::kBoolean:
      return target == DataType::kText || target == DataType::kInteger;
    case DataType::kInteger:
      return target == DataType::kReal || target == DataType::kText;
    case DataType::kReal:
      // Real -> integer only when the value is integral.
      if (target == DataType::kInteger) {
        double v = AsReal();
        return std::floor(v) == v && std::abs(v) < 9.2e18;
      }
      return target == DataType::kText;
    case DataType::kText:
      return TextCastsTo(AsText(), target);
    case DataType::kNull:
      return true;
  }
  return false;
}

bool Value::TextCastsTo(std::string_view text, DataType target) {
  switch (target) {
    case DataType::kText:
      return true;
    case DataType::kInteger:
      return ParseInt64(text).has_value();
    case DataType::kReal:
      return ParseDouble(text).has_value();
    case DataType::kBoolean: {
      const std::string lower = ToLower(text);
      return lower == "true" || lower == "false" || lower == "0" ||
             lower == "1";
    }
    case DataType::kNull:
      return false;
  }
  return false;
}

Result<Value> Value::CastTo(DataType target) const {
  if (is_null()) return Value::Null();
  if (target == type()) return *this;
  if (type() == DataType::kText) return CastText(AsText(), target);
  if (!CanCastTo(target)) {
    return Status::TypeMismatch(
        "cannot cast " + ToString() + " (" +
        std::string(DataTypeToString(type())) + ") to " +
        std::string(DataTypeToString(target)));
  }
  switch (type()) {
    case DataType::kBoolean:
      if (target == DataType::kText) {
        return Value::Text(AsBoolean() ? "true" : "false");
      }
      return Value::Integer(AsBoolean() ? 1 : 0);
    case DataType::kInteger:
      if (target == DataType::kReal) {
        return Value::Real(static_cast<double>(AsInteger()));
      }
      return Value::Text(std::to_string(AsInteger()));
    case DataType::kReal:
      if (target == DataType::kInteger) {
        return Value::Integer(static_cast<int64_t>(AsReal()));
      }
      return Value::Text(FormatDouble(AsReal(), 15));
    case DataType::kText:  // handled above
    case DataType::kNull:
      return Value::Null();
  }
  return Status::Internal("unreachable cast");
}

Result<Value> Value::CastText(std::string_view text, DataType target) {
  switch (target) {
    case DataType::kText:
      return Value::Text(std::string(text));
    case DataType::kInteger:
      if (std::optional<int64_t> parsed = ParseInt64(text)) {
        return Value::Integer(*parsed);
      }
      break;
    case DataType::kReal:
      if (std::optional<double> parsed = ParseDouble(text)) {
        return Value::Real(*parsed);
      }
      break;
    case DataType::kBoolean: {
      const std::string lower = ToLower(text);
      if (lower == "true" || lower == "1") return Value::Boolean(true);
      if (lower == "false" || lower == "0") return Value::Boolean(false);
      break;
    }
    case DataType::kNull:
      break;
  }
  return Status::TypeMismatch("cannot cast " + std::string(text) +
                              " (text) to " +
                              std::string(DataTypeToString(target)));
}

std::string Value::ToString() const {
  switch (type()) {
    case DataType::kNull:
      return "NULL";
    case DataType::kBoolean:
      return AsBoolean() ? "true" : "false";
    case DataType::kInteger:
      return std::to_string(AsInteger());
    case DataType::kReal:
      return FormatDouble(AsReal(), 15);
    case DataType::kText:
      return AsText();
  }
  return "?";
}

bool operator<(const Value& a, const Value& b) {
  int ra = TypeRank(a.type());
  int rb = TypeRank(b.type());
  if (ra != rb) return ra < rb;
  switch (a.type()) {
    case DataType::kNull:
      return false;
    case DataType::kBoolean:
      return a.AsBoolean() < b.AsBoolean();
    case DataType::kInteger:
    case DataType::kReal:
      return a.NumericValue() < b.NumericValue();
    case DataType::kText:
      return a.AsText() < b.AsText();
  }
  return false;
}

bool operator==(const Value& a, const Value& b) {
  int ra = TypeRank(a.type());
  int rb = TypeRank(b.type());
  if (ra != rb) return false;
  switch (a.type()) {
    case DataType::kNull:
      return b.type() == DataType::kNull;
    case DataType::kBoolean:
      return a.AsBoolean() == b.AsBoolean();
    case DataType::kInteger:
    case DataType::kReal:
      return a.NumericValue() == b.NumericValue();
    case DataType::kText:
      return a.AsText() == b.AsText();
  }
  return false;
}

size_t Value::Hash() const {
  switch (type()) {
    case DataType::kNull:
      return 0x9e3779b9;
    case DataType::kBoolean:
      return AsBoolean() ? 0x517cc1b7 : 0x27220a95;
    case DataType::kInteger:
    case DataType::kReal:
      // Hash numerics via their double value so 3 == 3.0 hash equal.
      return std::hash<double>()(NumericValue());
    case DataType::kText:
      return ValueHash()(std::string_view(AsText()));
  }
  return 0;
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

}  // namespace efes
