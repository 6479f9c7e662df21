#include "number_reference.h"

#include <cerrno>
#include <cstdlib>
#include <string>

#include "efes/common/string_util.h"

namespace efes {

std::optional<int64_t> ReferenceParseInt64(std::string_view text) {
  const std::string_view trimmed = Trim(text);
  if (trimmed.empty()) return std::nullopt;
  const std::string buffer(trimmed);
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buffer.c_str(), &end, 10);
  if (errno == ERANGE || end != buffer.c_str() + buffer.size()) {
    return std::nullopt;
  }
  return static_cast<int64_t>(value);
}

std::optional<uint64_t> ReferenceParseUint64(std::string_view text) {
  const std::string_view trimmed = Trim(text);
  if (trimmed.empty() || trimmed.front() == '-') return std::nullopt;
  const std::string buffer(trimmed);
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(buffer.c_str(), &end, 10);
  if (errno == ERANGE || end != buffer.c_str() + buffer.size()) {
    return std::nullopt;
  }
  return static_cast<uint64_t>(value);
}

std::optional<double> ReferenceParseDouble(std::string_view text) {
  const std::string_view trimmed = Trim(text);
  if (trimmed.empty()) return std::nullopt;
  const std::string buffer(trimmed);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buffer.c_str(), &end);
  if (errno == ERANGE || end != buffer.c_str() + buffer.size()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace efes
