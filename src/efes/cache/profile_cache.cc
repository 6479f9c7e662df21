#include "efes/cache/profile_cache.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <utility>

#include "efes/cache/fingerprint.h"
#include "efes/common/fault.h"
#include "efes/common/file_io.h"
#include "efes/telemetry/log.h"
#include "efes/common/metrics.h"

namespace efes {

namespace {

// --- Token encoding -------------------------------------------------------
// Entries are single lines of space-separated tokens. Strings are
// percent-escaped (space, '%', control bytes) and prefixed with '=' so an
// empty string still occupies a token; doubles render as hexfloat, which
// strtod parses back bit-exactly.

constexpr char kHexDigits[] = "0123456789abcdef";

void AppendEscapedBody(std::string* out, std::string_view s) {
  for (char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    if (c == '%' || c <= 0x20 || c == 0x7f) {
      out->push_back('%');
      out->push_back(kHexDigits[c >> 4]);
      out->push_back(kHexDigits[c & 0xf]);
    } else {
      out->push_back(raw);
    }
  }
}

bool HexNibble(char c, unsigned* out) {
  if (c >= '0' && c <= '9') {
    *out = static_cast<unsigned>(c - '0');
    return true;
  }
  if (c >= 'a' && c <= 'f') {
    *out = static_cast<unsigned>(c - 'a' + 10);
    return true;
  }
  return false;
}

bool UnescapeBody(std::string_view body, std::string* out) {
  out->clear();
  for (size_t i = 0; i < body.size(); ++i) {
    if (body[i] != '%') {
      out->push_back(body[i]);
      continue;
    }
    unsigned hi = 0;
    unsigned lo = 0;
    if (i + 2 >= body.size() || !HexNibble(body[i + 1], &hi) ||
        !HexNibble(body[i + 2], &lo)) {
      return false;
    }
    out->push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return true;
}

std::string DoubleToken(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", v);
  return buffer;
}

/// Serializer: appends space-separated tokens to one line.
class TokenWriter {
 public:
  void Uint(uint64_t v) { Raw(std::to_string(v)); }
  void Int(int64_t v) { Raw(std::to_string(v)); }
  void Double(double v) { Raw(DoubleToken(v)); }
  void Flag(bool v) { Raw(v ? "1" : "0"); }
  void String(std::string_view s) {
    std::string token = "=";
    AppendEscapedBody(&token, s);
    Raw(token);
  }
  void ValueToken(const Value& v) {
    switch (v.type()) {
      case DataType::kNull:
        Raw("n");
        return;
      case DataType::kBoolean:
        Raw(v.AsBoolean() ? "b1" : "b0");
        return;
      case DataType::kInteger:
        Raw("i" + std::to_string(v.AsInteger()));
        return;
      case DataType::kReal:
        Raw("r" + DoubleToken(v.AsReal()));
        return;
      case DataType::kText: {
        std::string token = "t";
        AppendEscapedBody(&token, v.AsText());
        Raw(token);
        return;
      }
    }
  }

  std::string TakeLine() { return std::move(line_); }

 private:
  void Raw(std::string token) {
    if (!line_.empty()) line_.push_back(' ');
    line_ += token;
  }
  std::string line_;
};

/// Parser over one entry line. Every getter returns false (and latches
/// the failure) on malformed input, so callers can chain reads and check
/// once; corrupt entries become cache misses, never crashes.
class TokenReader {
 public:
  explicit TokenReader(std::string_view line) : rest_(line) {}

  bool NextToken(std::string_view* token) {
    if (failed_ || rest_.empty()) return Fail();
    size_t space = rest_.find(' ');
    if (space == std::string_view::npos) {
      *token = rest_;
      rest_ = {};
    } else {
      *token = rest_.substr(0, space);
      rest_.remove_prefix(space + 1);
    }
    return !token->empty() || Fail();
  }

  bool NextUint(uint64_t* out) {
    std::string_view token;
    if (!NextToken(&token)) return false;
    std::string buffer(token);
    char* end = nullptr;
    *out = std::strtoull(buffer.c_str(), &end, 10);
    return (end == buffer.c_str() + buffer.size() && !buffer.empty()) ||
           Fail();
  }

  bool NextSize(size_t* out) {
    uint64_t v = 0;
    if (!NextUint(&v)) return false;
    *out = static_cast<size_t>(v);
    return true;
  }

  bool NextInt(int64_t* out) {
    std::string_view token;
    if (!NextToken(&token)) return false;
    std::string buffer(token);
    char* end = nullptr;
    *out = std::strtoll(buffer.c_str(), &end, 10);
    return (end == buffer.c_str() + buffer.size() && !buffer.empty()) ||
           Fail();
  }

  bool NextDouble(double* out) {
    std::string_view token;
    if (!NextToken(&token)) return false;
    std::string buffer(token);
    char* end = nullptr;
    *out = std::strtod(buffer.c_str(), &end);
    return (end == buffer.c_str() + buffer.size() && !buffer.empty()) ||
           Fail();
  }

  bool NextFlag(bool* out) {
    std::string_view token;
    if (!NextToken(&token)) return false;
    if (token == "1") {
      *out = true;
      return true;
    }
    if (token == "0") {
      *out = false;
      return true;
    }
    return Fail();
  }

  bool NextString(std::string* out) {
    std::string_view token;
    if (!NextToken(&token)) return false;
    if (token.empty() || token[0] != '=') return Fail();
    return UnescapeBody(token.substr(1), out) || Fail();
  }

  bool NextValue(Value* out) {
    std::string_view token;
    if (!NextToken(&token)) return false;
    std::string buffer(token.substr(1));
    char* end = nullptr;
    switch (token[0]) {
      case 'n':
        *out = Value::Null();
        return buffer.empty() || Fail();
      case 'b':
        if (buffer == "1") {
          *out = Value::Boolean(true);
          return true;
        }
        if (buffer == "0") {
          *out = Value::Boolean(false);
          return true;
        }
        return Fail();
      case 'i': {
        int64_t v = std::strtoll(buffer.c_str(), &end, 10);
        if (end != buffer.c_str() + buffer.size() || buffer.empty()) {
          return Fail();
        }
        *out = Value::Integer(v);
        return true;
      }
      case 'r': {
        double v = std::strtod(buffer.c_str(), &end);
        if (end != buffer.c_str() + buffer.size() || buffer.empty()) {
          return Fail();
        }
        *out = Value::Real(v);
        return true;
      }
      case 't': {
        std::string text;
        if (!UnescapeBody(buffer, &text)) return Fail();
        *out = Value::Text(std::move(text));
        return true;
      }
      default:
        return Fail();
    }
  }

  bool AtEnd() const { return !failed_ && rest_.empty(); }
  bool failed() const { return failed_; }

 private:
  bool Fail() {
    failed_ = true;
    return false;
  }

  std::string_view rest_;
  bool failed_ = false;
};

bool ValidDataType(uint64_t raw) {
  return raw <= static_cast<uint64_t>(DataType::kText);
}

bool ValidConstraintKind(uint64_t raw) {
  return raw <= static_cast<uint64_t>(ConstraintKind::kFunctionalDependency);
}

Counter& CacheCounter(const char* name) {
  return MetricsRegistry::Global().GetCounter(name);
}

}  // namespace

// --- Statistics serialization ---------------------------------------------

std::string SerializeStatistics(const AttributeStatistics& stats) {
  TokenWriter w;
  w.Uint(static_cast<uint64_t>(stats.evaluated_against));
  w.Uint(stats.fill_status.total_count);
  w.Uint(stats.fill_status.null_count);
  w.Uint(stats.fill_status.uncastable_count);
  w.Double(stats.constancy.constancy);
  w.Uint(stats.constancy.distinct_count);
  w.Uint(stats.constancy.non_null_count);
  w.Flag(stats.text_pattern.has_value());
  if (stats.text_pattern.has_value()) {
    w.Uint(stats.text_pattern->patterns.size());
    for (const auto& [pattern, freq] : stats.text_pattern->patterns) {
      w.String(pattern);
      w.Double(freq);
    }
  }
  w.Flag(stats.char_histogram.has_value());
  if (stats.char_histogram.has_value()) {
    w.Uint(stats.char_histogram->frequencies.size());
    for (const auto& [c, freq] : stats.char_histogram->frequencies) {
      w.Int(static_cast<int64_t>(c));
      w.Double(freq);
    }
  }
  w.Flag(stats.string_length.has_value());
  if (stats.string_length.has_value()) {
    w.Double(stats.string_length->mean);
    w.Double(stats.string_length->stddev);
  }
  w.Flag(stats.mean.has_value());
  if (stats.mean.has_value()) {
    w.Double(stats.mean->mean);
    w.Double(stats.mean->stddev);
  }
  w.Flag(stats.histogram.has_value());
  if (stats.histogram.has_value()) {
    w.Double(stats.histogram->min);
    w.Double(stats.histogram->max);
    w.Uint(stats.histogram->bucket_fractions.size());
    for (double fraction : stats.histogram->bucket_fractions) {
      w.Double(fraction);
    }
  }
  w.Flag(stats.value_range.has_value());
  if (stats.value_range.has_value()) {
    w.Double(stats.value_range->min);
    w.Double(stats.value_range->max);
  }
  w.Double(stats.top_k.coverage);
  w.Uint(stats.top_k.top_values.size());
  for (const auto& [value, freq] : stats.top_k.top_values) {
    w.ValueToken(value);
    w.Double(freq);
  }
  return w.TakeLine();
}

Result<AttributeStatistics> ParseStatistics(std::string_view line) {
  TokenReader r(line);
  AttributeStatistics stats;
  uint64_t type_raw = 0;
  if (!r.NextUint(&type_raw) || !ValidDataType(type_raw)) {
    return Status::ParseError("profile cache: bad statistics type tag");
  }
  stats.evaluated_against = static_cast<DataType>(type_raw);
  bool ok = r.NextSize(&stats.fill_status.total_count) &&
            r.NextSize(&stats.fill_status.null_count) &&
            r.NextSize(&stats.fill_status.uncastable_count) &&
            r.NextDouble(&stats.constancy.constancy) &&
            r.NextSize(&stats.constancy.distinct_count) &&
            r.NextSize(&stats.constancy.non_null_count);
  bool present = false;
  if (ok && r.NextFlag(&present) && present) {
    TextPatternStats patterns;
    size_t count = 0;
    ok = r.NextSize(&count) && count <= TextPatternStats::kMaxPatterns;
    for (size_t i = 0; ok && i < count; ++i) {
      std::string pattern;
      double freq = 0.0;
      ok = r.NextString(&pattern) && r.NextDouble(&freq);
      if (ok) patterns.patterns.emplace_back(std::move(pattern), freq);
    }
    if (ok) stats.text_pattern = std::move(patterns);
  }
  ok = ok && !r.failed();
  if (ok && r.NextFlag(&present) && present) {
    CharHistogramStats chars;
    size_t count = 0;
    ok = r.NextSize(&count) && count <= 256;
    for (size_t i = 0; ok && i < count; ++i) {
      int64_t c = 0;
      double freq = 0.0;
      ok = r.NextInt(&c) && r.NextDouble(&freq) && c >= -128 && c <= 127;
      if (ok) chars.frequencies[static_cast<char>(c)] = freq;
    }
    if (ok) stats.char_histogram = std::move(chars);
  }
  ok = ok && !r.failed();
  if (ok && r.NextFlag(&present) && present) {
    StringLengthStats lengths;
    ok = r.NextDouble(&lengths.mean) && r.NextDouble(&lengths.stddev);
    if (ok) stats.string_length = lengths;
  }
  ok = ok && !r.failed();
  if (ok && r.NextFlag(&present) && present) {
    MeanStats mean;
    ok = r.NextDouble(&mean.mean) && r.NextDouble(&mean.stddev);
    if (ok) stats.mean = mean;
  }
  ok = ok && !r.failed();
  if (ok && r.NextFlag(&present) && present) {
    HistogramStats histogram;
    size_t count = 0;
    ok = r.NextDouble(&histogram.min) && r.NextDouble(&histogram.max) &&
         r.NextSize(&count) && count <= HistogramStats::kBucketCount;
    for (size_t i = 0; ok && i < count; ++i) {
      double fraction = 0.0;
      ok = r.NextDouble(&fraction);
      if (ok) histogram.bucket_fractions.push_back(fraction);
    }
    if (ok) stats.histogram = std::move(histogram);
  }
  ok = ok && !r.failed();
  if (ok && r.NextFlag(&present) && present) {
    ValueRangeStats range;
    ok = r.NextDouble(&range.min) && r.NextDouble(&range.max);
    if (ok) stats.value_range = range;
  }
  size_t top_count = 0;
  ok = ok && r.NextDouble(&stats.top_k.coverage) && r.NextSize(&top_count) &&
       top_count <= TopKStats::kK;
  for (size_t i = 0; ok && i < top_count; ++i) {
    Value value;
    double freq = 0.0;
    ok = r.NextValue(&value) && r.NextDouble(&freq);
    if (ok) stats.top_k.top_values.emplace_back(std::move(value), freq);
  }
  if (!ok || !r.AtEnd()) {
    return Status::ParseError("profile cache: malformed statistics entry");
  }
  return stats;
}

// --- Constraint serialization ---------------------------------------------

std::string SerializeConstraints(
    const std::vector<DiscoveredConstraint>& constraints) {
  TokenWriter w;
  w.Uint(constraints.size());
  for (const DiscoveredConstraint& d : constraints) {
    w.Uint(static_cast<uint64_t>(d.constraint.kind));
    w.String(d.constraint.relation);
    w.Uint(d.constraint.attributes.size());
    for (const std::string& attribute : d.constraint.attributes) {
      w.String(attribute);
    }
    w.String(d.constraint.referenced_relation);
    w.Uint(d.constraint.referenced_attributes.size());
    for (const std::string& attribute : d.constraint.referenced_attributes) {
      w.String(attribute);
    }
    w.Uint(d.support);
  }
  return w.TakeLine();
}

Result<std::vector<DiscoveredConstraint>> ParseConstraints(
    std::string_view line) {
  TokenReader r(line);
  size_t count = 0;
  // Arity cap: a mined constraint spans at most the attributes of one
  // relation; anything larger is a corrupt length field, and rejecting it
  // here keeps a flipped byte from turning into a giant allocation.
  constexpr size_t kMaxArity = 4096;
  constexpr size_t kMaxConstraints = 1 << 20;
  if (!r.NextSize(&count) || count > kMaxConstraints) {
    return Status::ParseError("profile cache: bad constraint count");
  }
  std::vector<DiscoveredConstraint> constraints;
  constraints.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    DiscoveredConstraint d;
    uint64_t kind_raw = 0;
    size_t arity = 0;
    bool ok = r.NextUint(&kind_raw) && ValidConstraintKind(kind_raw) &&
              r.NextString(&d.constraint.relation) && r.NextSize(&arity) &&
              arity <= kMaxArity;
    if (ok) d.constraint.kind = static_cast<ConstraintKind>(kind_raw);
    for (size_t a = 0; ok && a < arity; ++a) {
      std::string attribute;
      ok = r.NextString(&attribute);
      if (ok) d.constraint.attributes.push_back(std::move(attribute));
    }
    ok = ok && r.NextString(&d.constraint.referenced_relation) &&
         r.NextSize(&arity) && arity <= kMaxArity;
    for (size_t a = 0; ok && a < arity; ++a) {
      std::string attribute;
      ok = r.NextString(&attribute);
      if (ok) {
        d.constraint.referenced_attributes.push_back(std::move(attribute));
      }
    }
    uint64_t support = 0;
    ok = ok && r.NextUint(&support);
    if (!ok) {
      return Status::ParseError("profile cache: malformed constraint entry");
    }
    d.support = static_cast<size_t>(support);
    constraints.push_back(std::move(d));
  }
  if (!r.AtEnd()) {
    return Status::ParseError("profile cache: trailing constraint tokens");
  }
  return constraints;
}

// --- ProfileCache ----------------------------------------------------------

namespace {
std::atomic<ProfileCache*> g_active_cache{nullptr};
}  // namespace

ProfileCache* ProfileCache::Active() {
  return g_active_cache.load(std::memory_order_acquire);
}

ScopedProfileCache::ScopedProfileCache(ProfileCache* cache)
    : previous_(g_active_cache.exchange(cache, std::memory_order_acq_rel)) {}

ScopedProfileCache::~ScopedProfileCache() {
  g_active_cache.store(previous_, std::memory_order_release);
}

std::optional<AttributeStatistics> ProfileCache::LookupStatistics(
    uint64_t key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = statistics_.find(key);
  if (it == statistics_.end()) {
    CacheCounter("cache.misses").Increment();
    return std::nullopt;
  }
  CacheCounter("cache.hits").Increment();
  return it->second;
}

void ProfileCache::StoreStatistics(uint64_t key,
                                   const AttributeStatistics& stats) {
  CacheCounter("cache.stores").Increment();
  std::lock_guard<std::mutex> lock(mutex_);
  statistics_.insert_or_assign(key, stats);
}

std::optional<std::vector<DiscoveredConstraint>>
ProfileCache::LookupConstraints(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = constraints_.find(key);
  if (it == constraints_.end()) {
    CacheCounter("cache.misses").Increment();
    return std::nullopt;
  }
  CacheCounter("cache.hits").Increment();
  return it->second;
}

void ProfileCache::StoreConstraints(
    uint64_t key, const std::vector<DiscoveredConstraint>& constraints) {
  CacheCounter("cache.stores").Increment();
  std::lock_guard<std::mutex> lock(mutex_);
  constraints_.insert_or_assign(key, constraints);
}

size_t ProfileCache::entry_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return statistics_.size() + constraints_.size();
}

void ProfileCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  statistics_.clear();
  constraints_.clear();
}

std::string ProfileCache::FilePathInDirectory(const std::string& directory) {
  if (directory.empty() || directory.back() == '/') {
    return directory + "profile_cache.efes";
  }
  return directory + "/profile_cache.efes";
}

Status ProfileCache::LoadFromFile(const std::string& path) {
  EFES_RETURN_IF_ERROR(CheckFaultPoint("cache.load"));
  Result<std::string> content = ReadFileToString(path);
  if (!content.ok()) {
    // Missing or unreadable snapshot: a cold cache, not a failure.
    EFES_LOG(LogLevel::kInfo,
             "cache: no snapshot at " + path + " (" +
                 content.status().ToString() + "), starting cold");
    return Status::OK();
  }
  CacheCounter("cache.bytes").Increment(content->size());
  std::string_view rest = *content;
  auto next_line = [&rest](std::string_view* line) {
    if (rest.empty()) return false;
    size_t newline = rest.find('\n');
    if (newline == std::string_view::npos) {
      *line = rest;
      rest = {};
    } else {
      *line = rest.substr(0, newline);
      rest.remove_prefix(newline + 1);
    }
    return true;
  };
  std::string_view header;
  const std::string expected_header =
      "EFESCACHE " + std::to_string(kProfileCacheFormatVersion);
  if (!next_line(&header) || header != expected_header) {
    // Unknown version or mangled header: ignore the snapshot wholesale —
    // the format owns its compatibility story via the version bump.
    EFES_LOG(LogLevel::kWarn,
             "cache: ignoring snapshot " + path +
                 " (version mismatch or corrupt header)");
    return Status::OK();
  }
  size_t loaded = 0;
  size_t corrupt = 0;
  std::string_view line;
  while (next_line(&line)) {
    if (line.empty()) continue;
    bool entry_ok = false;
    if (line.size() > 19 &&
        (line[0] == 'S' || line[0] == 'C') &&
        line[1] == ' ' && line[18] == ' ') {
      std::string key_text(line.substr(2, 16));
      char* end = nullptr;
      uint64_t key = std::strtoull(key_text.c_str(), &end, 16);
      if (end == key_text.c_str() + key_text.size()) {
        std::string_view payload = line.substr(19);
        if (line[0] == 'S') {
          Result<AttributeStatistics> stats = ParseStatistics(payload);
          if (stats.ok()) {
            std::lock_guard<std::mutex> lock(mutex_);
            statistics_.insert_or_assign(key, *std::move(stats));
            entry_ok = true;
          }
        } else {
          Result<std::vector<DiscoveredConstraint>> constraints =
              ParseConstraints(payload);
          if (constraints.ok()) {
            std::lock_guard<std::mutex> lock(mutex_);
            constraints_.insert_or_assign(key, *std::move(constraints));
            entry_ok = true;
          }
        }
      }
    }
    if (entry_ok) {
      ++loaded;
    } else {
      ++corrupt;
    }
  }
  if (corrupt > 0) {
    CacheCounter("cache.load.corrupt_entries").Increment(corrupt);
    EFES_LOG(LogLevel::kWarn,
             "cache: skipped " + std::to_string(corrupt) +
                 " corrupt entrie(s) in " + path);
  }
  EFES_LOG(LogLevel::kInfo, "cache: loaded " + std::to_string(loaded) +
                                " entrie(s) from " + path);
  return Status::OK();
}

Status ProfileCache::SaveToFile(const std::string& path) const {
  EFES_RETURN_IF_ERROR(CheckFaultPoint("cache.save"));
  std::ostringstream out;
  out << "EFESCACHE " << kProfileCacheFormatVersion << "\n";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, stats] : statistics_) {
      out << "S " << FingerprintToHex(key) << ' '
          << SerializeStatistics(stats) << "\n";
    }
    for (const auto& [key, constraints] : constraints_) {
      out << "C " << FingerprintToHex(key) << ' '
          << SerializeConstraints(constraints) << "\n";
    }
  }
  std::error_code ec;
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    // Best effort: when this fails, WriteFileAtomic reports the real error.
    std::filesystem::create_directories(parent, ec);
  }
  std::string document = out.str();
  EFES_RETURN_IF_ERROR(WriteFileAtomic(path, document));
  CacheCounter("cache.bytes").Increment(document.size());
  return Status::OK();
}

}  // namespace efes
