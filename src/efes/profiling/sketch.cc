#include "efes/profiling/sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>

#include "efes/cache/fingerprint.h"
#include "efes/common/string_util.h"

namespace efes {

namespace {

constexpr double kEpsilon = 1e-12;

/// Build-stable fixed overhead charged against the --max-memory budget
/// (deliberately not sizeof(StatisticsSketch): cached sketch state must
/// re-import under the same budget arithmetic across builds).
constexpr uint64_t kSketchFixedBytes = 256;

bool IsNumericTarget(DataType type) {
  return type == DataType::kInteger || type == DataType::kReal;
}

/// The numeric reading the statistics use: numerics directly, text only
/// when it parses completely; booleans are not numeric. Only a finite
/// reading counts, so NaN and the infinities never reach the range, the
/// moments or the buckets (they still count in fill status, constancy
/// and top-k like any other value).
std::optional<double> NumericOf(const Value& value) {
  std::optional<double> number;
  if (value.type() == DataType::kInteger || value.type() == DataType::kReal) {
    number = value.NumericValue();
  } else if (value.type() == DataType::kText) {
    number = ParseDouble(value.AsText());
  }
  if (number.has_value() && std::isfinite(*number)) return number;
  return std::nullopt;
}

bool IsNaN(const Value& value) {
  return value.type() == DataType::kReal && std::isnan(value.AsReal());
}

/// Value's order made total over tracked keys, for the top-k tie-break.
/// NaN never equals itself, so every NaN cell is an entry of its own;
/// NaNs rank after every number, and among themselves by bit pattern.
bool TieBreakLess(const Value& a, const Value& b) {
  const bool a_nan = IsNaN(a);
  const bool b_nan = IsNaN(b);
  if (a_nan && b_nan) {
    return std::bit_cast<uint64_t>(a.AsReal()) <
           std::bit_cast<uint64_t>(b.AsReal());
  }
  if (a_nan != b_nan && IsNumericTarget(a.type()) &&
      IsNumericTarget(b.type())) {
    return b_nan;
  }
  return a < b;
}

/// Budget cost of one tracked map entry: node + key/count overhead plus
/// the owned text bytes. A deterministic model, not malloc truth.
constexpr uint64_t kEntryBytes = 64;
uint64_t EntryCost(const Value& value) {
  uint64_t cost = kEntryBytes;
  if (value.type() == DataType::kText) cost += value.AsText().size();
  return cost;
}

/// A murmur-style finalizer over an FNV digest (see SketchValueHash).
uint64_t Avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

/// SketchValueHash(Value::Text(text)), bit for bit.
uint64_t SketchTextHash(std::string_view text) {
  Fingerprinter fp;
  fp.MixText(text);
  return Avalanche(fp.digest());
}

}  // namespace

std::string_view ApproximationModeToString(ApproximationMode mode) {
  switch (mode) {
    case ApproximationMode::kExact:
      return "exact";
    case ApproximationMode::kSketch:
      return "sketch";
    case ApproximationMode::kAuto:
      return "auto";
  }
  return "unknown";
}

Result<ApproximationMode> ParseApproximationMode(std::string_view text) {
  if (text == "exact") return ApproximationMode::kExact;
  if (text == "sketch") return ApproximationMode::kSketch;
  if (text == "auto") return ApproximationMode::kAuto;
  return Status::InvalidArgument("unknown approximation mode '" +
                                 std::string(text) +
                                 "' (expected exact, sketch, or auto)");
}

uint64_t SketchValueHash(const Value& value) {
  Fingerprinter fp;
  fp.MixValue(value);
  // The FNV digest has weak high-bit avalanche on short inputs (a few
  // multiplies cannot spread a one-byte difference into the top bits),
  // and the sampling rule keys on exactly those bits. A murmur-style
  // finalizer makes every digest bit diffuse; without it, small-integer
  // columns leave almost no survivors at level 1 and the distinct
  // estimate collapses.
  return Avalanche(fp.digest());
}

StatisticsSketch::StatisticsSketch(DataType target_type,
                                   const ProfileOptions& options)
    : target_type_(target_type), mode_(options.mode) {
  if (options.max_memory_bytes != 0) {
    cap_bytes_ = options.max_memory_bytes;
  } else if (mode_ != ApproximationMode::kExact) {
    cap_bytes_ = kDefaultSketchMemoryBytes;
  }
}

StatisticsSketch StatisticsSketch::Inferring(const ProfileOptions& options) {
  StatisticsSketch sketch(DataType::kText, options);
  sketch.inferring_ = true;
  return sketch;
}

DataType StatisticsSketch::target_type() const {
  if (!inferring_) return target_type_;
  if (total_count_ == null_count_) return DataType::kText;
  if (may_be_integer_) return DataType::kInteger;
  return may_be_real_ ? DataType::kReal : DataType::kText;
}

void StatisticsSketch::CountNumber(double number) {
  if (numeric_count_ == 0) {
    numeric_min_ = numeric_max_ = number;
  } else {
    numeric_min_ = std::min(numeric_min_, number);
    numeric_max_ = std::max(numeric_max_, number);
  }
  ++numeric_count_;
}

void StatisticsSketch::Infer(std::string_view text) {
  if (!may_be_real_) return;
  const NumberReading reading = ReadNumber(text);
  if (!reading.real.has_value()) {
    // Every integer parses as a double too, so no numeric type is left.
    may_be_integer_ = false;
    may_be_real_ = false;
    DropNumbersUnlessReal();
    return;
  }
  if (!reading.integer) may_be_integer_ = false;
  if (std::isfinite(*reading.real)) CountNumber(*reading.real);
}

void StatisticsSketch::TypeText(std::string_view text) {
  if (!IsNumericTarget(target_type_)) {
    if (!Value::TextCastsTo(text, target_type_)) ++uncastable_count_;
    return;
  }
  // Value::TextCastsTo and NumericOf, from one scan of the text.
  const NumberReading reading = ReadNumber(text);
  const bool castable = target_type_ == DataType::kInteger
                            ? reading.integer
                            : reading.real.has_value();
  if (!castable) ++uncastable_count_;
  if (reading.real.has_value() && std::isfinite(*reading.real)) {
    CountNumber(*reading.real);
  }
}

void StatisticsSketch::DropNumbersUnlessReal() {
  if (may_be_real_) return;
  numeric_count_ = 0;
  numeric_min_ = 0.0;
  numeric_max_ = 0.0;
}

Status StatisticsSketch::Absorb(const Value& value) {
  if (inferring_ && !value.is_null()) {
    if (value.type() != DataType::kText) {
      return Status::InvalidArgument(
          "an inferring sketch absorbs only text and NULL cells");
    }
    return AbsorbText(value.AsText());
  }
  ++total_count_;
  if (value.is_null()) {
    ++null_count_;
    return Status::OK();
  }
  if (value.type() == DataType::kText) {
    TypeText(value.AsText());
  } else {
    if (!value.CanCastTo(target_type_)) ++uncastable_count_;
    if (IsNumericTarget(target_type_)) {
      if (std::optional<double> num = NumericOf(value)) CountNumber(*num);
    }
  }
  // Only a budget can raise the level and drop values, and Merge refuses
  // sketches with different budgets, so without one the hash is never
  // read and is not computed.
  uint64_t hash = 0;
  if (cap_bytes_ != 0) {
    hash = SketchValueHash(value);
    if (!Tracks(hash)) return Status::OK();
  }
  auto [it, inserted] =
      tracked_.try_emplace(value, std::pair<uint64_t, uint64_t>(0, hash));
  ++it->second.first;
  if (inserted) {
    tracked_bytes_ += EntryCost(value);
    return EnforceBudget();
  }
  return Status::OK();
}

Status StatisticsSketch::AbsorbText(std::string_view text) {
  ++total_count_;
  if (inferring_) {
    Infer(text);
  } else {
    TypeText(text);
  }
  uint64_t hash = 0;
  if (cap_bytes_ != 0) {
    hash = SketchTextHash(text);
    if (!Tracks(hash)) return Status::OK();
  }
  if (auto it = tracked_.find(text); it != tracked_.end()) {
    ++it->second.first;
    return Status::OK();
  }
  tracked_.emplace(Value::Text(std::string(text)),
                   std::pair<uint64_t, uint64_t>(1, hash));
  tracked_bytes_ += kEntryBytes + text.size();
  return EnforceBudget();
}

Status StatisticsSketch::AbsorbRange(const std::vector<Value>& column,
                                     size_t begin, size_t end) {
  end = std::min(end, column.size());
  for (size_t i = begin; i < end; ++i) {
    EFES_RETURN_IF_ERROR(Absorb(column[i]));
  }
  return Status::OK();
}

Status StatisticsSketch::Merge(const StatisticsSketch& other) {
  if (other.target_type_ != target_type_ ||
      other.inferring_ != inferring_ || other.mode_ != mode_ ||
      other.cap_bytes_ != cap_bytes_) {
    return Status::InvalidArgument(
        "cannot merge statistic sketches with different target types or "
        "profile options");
  }
  total_count_ += other.total_count_;
  null_count_ += other.null_count_;
  uncastable_count_ += other.uncastable_count_;
  if (other.numeric_count_ > 0) {
    if (numeric_count_ == 0) {
      numeric_min_ = other.numeric_min_;
      numeric_max_ = other.numeric_max_;
    } else {
      numeric_min_ = std::min(numeric_min_, other.numeric_min_);
      numeric_max_ = std::max(numeric_max_, other.numeric_max_);
    }
    numeric_count_ += other.numeric_count_;
  }
  may_be_integer_ = may_be_integer_ && other.may_be_integer_;
  may_be_real_ = may_be_real_ && other.may_be_real_;
  DropNumbersUnlessReal();
  if (other.level_ > level_) {
    // Adopt the coarser threshold, dropping our now-untracked values.
    level_ = other.level_;
    for (auto it = tracked_.begin(); it != tracked_.end();) {
      if (Tracks(it->second.second)) {
        ++it;
      } else {
        tracked_bytes_ -= EntryCost(it->first);
        it = tracked_.erase(it);
      }
    }
  }
  for (const auto& [value, entry] : other.tracked_) {
    if (!Tracks(entry.second)) continue;
    auto [it, inserted] = tracked_.try_emplace(
        value, std::pair<uint64_t, uint64_t>(0, entry.second));
    it->second.first += entry.first;
    if (inserted) tracked_bytes_ += EntryCost(value);
  }
  return EnforceBudget();
}

Status StatisticsSketch::EnforceBudget() {
  while (cap_bytes_ != 0 &&
         kSketchFixedBytes + tracked_bytes_ > cap_bytes_) {
    if (mode_ == ApproximationMode::kExact || level_ >= 63) {
      std::ostringstream oss;
      oss << "profiling an attribute exactly needs "
          << (kSketchFixedBytes + tracked_bytes_)
          << " bytes but the --max-memory budget is " << cap_bytes_
          << " bytes per sketch";
      if (mode_ == ApproximationMode::kExact) {
        oss << "; rerun with --approx=sketch or --approx=auto";
      }
      return Status::ResourceExhausted(oss.str());
    }
    ++level_;
    for (auto it = tracked_.begin(); it != tracked_.end();) {
      if (Tracks(it->second.second)) {
        ++it;
      } else {
        tracked_bytes_ -= EntryCost(it->first);
        it = tracked_.erase(it);
      }
    }
  }
  return Status::OK();
}

size_t StatisticsSketch::MemoryBytes() const {
  return static_cast<size_t>(kSketchFixedBytes + tracked_bytes_);
}

ApproximationMode StatisticsSketch::effective_mode() const {
  return level_ == 0 ? ApproximationMode::kExact : ApproximationMode::kSketch;
}

AttributeStatistics StatisticsSketch::Finalize() const {
  AttributeStatistics stats;
  const DataType target = target_type();
  stats.evaluated_against = target;

  // --- Fill status: exact counters in every mode. -------------------------
  stats.fill_status.total_count = static_cast<size_t>(total_count_);
  stats.fill_status.null_count = static_cast<size_t>(null_count_);
  stats.fill_status.uncastable_count = static_cast<size_t>(uncastable_count_);
  const uint64_t non_null = total_count_ - null_count_;

  // Nothing below depends on the order in which the unordered tracking
  // map iterates, which is what makes Finalize a pure function of the
  // sketch state: integer sums are exact, every floating-point sum runs
  // over a short histogram in key order (or over sorted numbers), and
  // ranks use a total order. One pass gathers the sample total, the
  // histogram of counts, and the top k.
  const auto ranks_before = [](const std::pair<const Value*, uint64_t>& a,
                               const std::pair<const Value*, uint64_t>& b) {
    if (a.second != b.second) return a.second > b.second;
    return TieBreakLess(*a.first, *b.first);  // deterministic tie-break
  };
  std::vector<std::pair<const Value*, uint64_t>> top;
  top.reserve(TopKStats::kK + 1);
  std::map<uint64_t, uint64_t> values_per_count;
  uint64_t sample_total = 0;
  for (const auto& [value, entry] : tracked_) {
    const uint64_t count = entry.first;
    sample_total += count;
    ++values_per_count[count];
    const std::pair<const Value*, uint64_t> candidate(&value, count);
    if (top.size() == TopKStats::kK && !ranks_before(candidate, top.back())) {
      continue;
    }
    top.insert(std::upper_bound(top.begin(), top.end(), candidate,
                                ranks_before),
               candidate);
    if (top.size() > TopKStats::kK) top.pop_back();
  }

  // Inverse sampling rate: each distinct value is tracked with
  // probability 2^-level, with an exact count when it is.
  const double scale = std::ldexp(1.0, static_cast<int>(level_));
  uint64_t distinct_estimate = tracked_.size();
  for (uint32_t l = 0; l < level_; ++l) {
    if (distinct_estimate > (UINT64_MAX >> 1)) break;
    distinct_estimate <<= 1;
  }

  // --- Constancy (inverse normalized entropy). ----------------------------
  // With p = c/n, -sum p*log2(p) regroups by count: m_c values occur c
  // times each, T = sum m_c*c, and
  //   H = scale * (log2(n) * T/n - sum_c m_c*c*log2(c) / n).
  // At level 0 T = n, so an all-distinct column (every c = 1) gets
  // H = log2(n) exactly and constancy exactly 0.
  stats.constancy.non_null_count = static_cast<size_t>(non_null);
  stats.constancy.distinct_count = static_cast<size_t>(distinct_estimate);
  if (non_null > 0 && distinct_estimate > 1) {
    const double n = static_cast<double>(non_null);
    double weighted_log = 0.0;
    for (const auto& [count, values] : values_per_count) {
      const double c = static_cast<double>(count);
      weighted_log += static_cast<double>(values) * c * std::log2(c);
    }
    const double max_entropy = std::log2(n);
    const double entropy =
        scale * (max_entropy * (static_cast<double>(sample_total) / n) -
                 weighted_log / n);
    stats.constancy.constancy =
        max_entropy < kEpsilon ? 1.0
                               : std::max(0.0, 1.0 - entropy / max_entropy);
  } else {
    stats.constancy.constancy = 1.0;  // empty or single-valued
  }

  // --- Top-k: tracked counts are exact global frequencies. ----------------
  // Integer counts rank exactly as count/non_null does.
  for (const auto& [value, count] : top) {
    const double freq =
        static_cast<double>(count) / static_cast<double>(non_null);
    stats.top_k.top_values.emplace_back(*value, freq);
    stats.top_k.coverage += freq;
  }

  // --- String-directed statistics (ratio estimates over the sample;
  // exact at level 0 where the sample is the whole column). ----------------
  if (target == DataType::kText) {
    std::map<std::string, uint64_t> pattern_counts;
    // Flat 256-slot histogram instead of a tree map in the hot loop:
    // branch-free, cache-resident, and iterated over *distinct* values
    // only — duplicates cost one integer add, not a re-scan.
    std::array<uint64_t, 256> char_counts{};
    std::map<size_t, uint64_t> length_counts;  // length -> occurrences
    uint64_t total_chars = 0;
    std::string rendered;  // the text of a non-text value
    for (const auto& [value, entry] : tracked_) {
      const uint64_t count = entry.first;
      std::string_view text;
      if (value.type() == DataType::kText) {
        text = value.AsText();
      } else {
        rendered = value.ToString();
        text = rendered;
      }
      pattern_counts[GeneralizeToPattern(text)] += count;
      for (unsigned char c : text) char_counts[c] += count;
      total_chars += count * text.size();
      length_counts[text.size()] += count;
    }

    const double denom = static_cast<double>(sample_total);
    TextPatternStats pattern_stats;
    for (const auto& [pattern, count] : pattern_counts) {
      pattern_stats.patterns.emplace_back(
          pattern,
          sample_total == 0 ? 0.0 : static_cast<double>(count) / denom);
    }
    std::sort(pattern_stats.patterns.begin(), pattern_stats.patterns.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    if (pattern_stats.patterns.size() > TextPatternStats::kMaxPatterns) {
      pattern_stats.patterns.resize(TextPatternStats::kMaxPatterns);
    }
    stats.text_pattern = std::move(pattern_stats);

    CharHistogramStats char_stats;
    for (size_t i = 0; i < char_counts.size(); ++i) {
      if (char_counts[i] == 0) continue;
      char_stats.frequencies[static_cast<char>(i)] =
          total_chars == 0 ? 0.0
                           : static_cast<double>(char_counts[i]) /
                                 static_cast<double>(total_chars);
    }
    stats.char_histogram = std::move(char_stats);

    const double mean =
        sample_total == 0 ? 0.0 : static_cast<double>(total_chars) / denom;
    double variance = 0.0;
    for (const auto& [length, count] : length_counts) {
      const double d = static_cast<double>(length) - mean;
      variance += static_cast<double>(count) * d * d;
    }
    if (sample_total > 0) variance /= denom;
    stats.string_length = StringLengthStats{mean, std::sqrt(variance)};
  }

  // --- Numeric statistics: exact min/max scalars; moments and buckets
  // from the (exact-at-level-0) sample. ------------------------------------
  if (IsNumericTarget(target) && numeric_count_ > 0) {
    std::vector<std::pair<double, uint64_t>> numbers;
    numbers.reserve(tracked_.size());
    uint64_t sample_numeric = 0;
    for (const auto& [value, entry] : tracked_) {
      if (std::optional<double> num = NumericOf(value)) {
        numbers.emplace_back(*num, entry.first);
        sample_numeric += entry.first;
      }
    }
    // Ascending by reading, then by count: a canonical order for the
    // sums, and Value's own order whenever every tracked value is a
    // number (equal numbers are one entry then).
    std::sort(numbers.begin(), numbers.end());
    const double denom = static_cast<double>(sample_numeric);
    double mean = 0.0;
    for (const auto& [v, count] : numbers) {
      mean += static_cast<double>(count) * v;
    }
    if (sample_numeric > 0) mean /= denom;
    double variance = 0.0;
    for (const auto& [v, count] : numbers) {
      variance += static_cast<double>(count) * (v - mean) * (v - mean);
    }
    if (sample_numeric > 0) variance /= denom;
    stats.mean = MeanStats{mean, std::sqrt(variance)};

    stats.value_range = ValueRangeStats{numeric_min_, numeric_max_};

    HistogramStats histogram;
    histogram.min = numeric_min_;
    histogram.max = numeric_max_;
    histogram.bucket_fractions.assign(HistogramStats::kBucketCount, 0.0);
    constexpr size_t kLastBucket = HistogramStats::kBucketCount - 1;
    double width = (numeric_max_ - numeric_min_) / HistogramStats::kBucketCount;
    for (const auto& [v, count] : numbers) {
      size_t bucket = 0;
      if (width >= kEpsilon) {
        // Compared as a double first: a range too wide for a double
        // makes the position NaN, which lands in the last bucket.
        const double position = (v - numeric_min_) / width;
        bucket = position < static_cast<double>(kLastBucket)
                     ? static_cast<size_t>(position)
                     : kLastBucket;
      }
      histogram.bucket_fractions[bucket] += static_cast<double>(count) / denom;
    }
    stats.histogram = std::move(histogram);
  }

  return stats;
}

void ValueBloom::InsertHash(uint64_t hash) {
  // Three probes from independent 12-bit slices of the 64-bit hash.
  for (int probe = 0; probe < 3; ++probe) {
    uint64_t bit = (hash >> (probe * 12)) & 4095;
    bits_[bit >> 6] |= (1ull << (bit & 63));
  }
}

bool ValueBloom::MightContain(const Value& value) const {
  const uint64_t hash = SketchValueHash(value);
  for (int probe = 0; probe < 3; ++probe) {
    uint64_t bit = (hash >> (probe * 12)) & 4095;
    if ((bits_[bit >> 6] & (1ull << (bit & 63))) == 0) return false;
  }
  return true;
}

bool ValueBloom::SubsetOf(const ValueBloom& other) const {
  for (size_t i = 0; i < kWords; ++i) {
    if ((bits_[i] & ~other.bits_[i]) != 0) return false;
  }
  return true;
}

void ValueBloom::MergeFrom(const ValueBloom& other) {
  for (size_t i = 0; i < kWords; ++i) bits_[i] |= other.bits_[i];
}

}  // namespace efes
