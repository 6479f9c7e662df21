#include "efes/cache/fingerprint.h"

#include <cstring>

namespace efes {

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ull;

/// Per-ingredient tags keep the encoding prefix-free across types.
enum class MixTag : uint64_t {
  kNull = 1,
  kBoolean,
  kInteger,
  kReal,
  kText,
  kColumn,
  kDatabase,
  kRelation,
  kConstraint,
};

}  // namespace

Fingerprinter& Fingerprinter::MixBytes(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= kFnvPrime;
  }
  return *this;
}

Fingerprinter& Fingerprinter::MixUint64(uint64_t v) {
  // Fixed little-endian byte order, so fingerprints (and therefore cache
  // files) are portable across hosts.
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  return MixBytes(bytes, sizeof(bytes));
}

Fingerprinter& Fingerprinter::MixDouble(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return MixUint64(bits);
}

Fingerprinter& Fingerprinter::MixString(std::string_view s) {
  MixUint64(s.size());
  return MixBytes(s.data(), s.size());
}

Fingerprinter& Fingerprinter::MixValue(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      return MixUint64(static_cast<uint64_t>(MixTag::kNull));
    case DataType::kBoolean:
      MixUint64(static_cast<uint64_t>(MixTag::kBoolean));
      return MixBool(v.AsBoolean());
    case DataType::kInteger:
      MixUint64(static_cast<uint64_t>(MixTag::kInteger));
      return MixUint64(static_cast<uint64_t>(v.AsInteger()));
    case DataType::kReal:
      MixUint64(static_cast<uint64_t>(MixTag::kReal));
      return MixDouble(v.AsReal());
    case DataType::kText:
      return MixText(v.AsText());
  }
  return *this;
}

Fingerprinter& Fingerprinter::MixText(std::string_view text) {
  MixUint64(static_cast<uint64_t>(MixTag::kText));
  return MixString(text);
}

uint64_t FingerprintColumn(const std::vector<Value>& column,
                           DataType target_type) {
  Fingerprinter fp;
  fp.MixUint64(static_cast<uint64_t>(MixTag::kColumn));
  fp.MixUint64(static_cast<uint64_t>(target_type));
  fp.MixUint64(column.size());
  for (const Value& value : column) fp.MixValue(value);
  return fp.digest();
}

void MixConstraint(Fingerprinter& fp, const Constraint& constraint) {
  fp.MixUint64(static_cast<uint64_t>(MixTag::kConstraint));
  fp.MixUint64(static_cast<uint64_t>(constraint.kind));
  fp.MixString(constraint.relation);
  fp.MixUint64(constraint.attributes.size());
  for (const std::string& attribute : constraint.attributes) {
    fp.MixString(attribute);
  }
  fp.MixString(constraint.referenced_relation);
  fp.MixUint64(constraint.referenced_attributes.size());
  for (const std::string& attribute : constraint.referenced_attributes) {
    fp.MixString(attribute);
  }
}

uint64_t FingerprintDatabase(const Database& database) {
  Fingerprinter fp;
  fp.MixUint64(static_cast<uint64_t>(MixTag::kDatabase));
  const Schema& schema = database.schema();
  fp.MixString(schema.name());
  fp.MixUint64(schema.relations().size());
  for (const RelationDef& relation : schema.relations()) {
    fp.MixUint64(static_cast<uint64_t>(MixTag::kRelation));
    fp.MixString(relation.name());
    fp.MixUint64(relation.attributes().size());
    for (const AttributeDef& attribute : relation.attributes()) {
      fp.MixString(attribute.name);
      fp.MixUint64(static_cast<uint64_t>(attribute.type));
    }
  }
  fp.MixUint64(schema.constraints().size());
  for (const Constraint& constraint : schema.constraints()) {
    MixConstraint(fp, constraint);
  }
  // Instance data, column-major in schema order (matches Table storage,
  // so no per-row materialization).
  for (const Table& table : database.tables()) {
    fp.MixUint64(table.row_count());
    for (size_t c = 0; c < table.column_count(); ++c) {
      for (const Value& value : table.column(c)) fp.MixValue(value);
    }
  }
  return fp.digest();
}

std::string FingerprintToHex(uint64_t fingerprint) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex(16, '0');
  for (int i = 15; i >= 0; --i) {
    hex[static_cast<size_t>(i)] = kDigits[fingerprint & 0xf];
    fingerprint >>= 4;
  }
  return hex;
}

}  // namespace efes
