#include "sketch_reference.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>

namespace efes {
namespace {

constexpr double kEpsilon = 1e-12;

bool IsNumeric(DataType type) {
  return type == DataType::kInteger || type == DataType::kReal;
}

bool IsNaN(const Value& value) {
  return value.type() == DataType::kReal && std::isnan(value.AsReal());
}

/// Value's order with NaN after every number, NaNs by bit pattern.
bool ValueLess(const Value& a, const Value& b) {
  if (IsNaN(a) || IsNaN(b)) {
    if (IsNaN(a) && IsNaN(b)) {
      return std::bit_cast<uint64_t>(a.AsReal()) <
             std::bit_cast<uint64_t>(b.AsReal());
    }
    if (IsNumeric(a.type()) && IsNumeric(b.type())) return IsNaN(b);
  }
  return a < b;
}

/// The value as a finite double: numerics directly, other values
/// through a cast to REAL.
std::optional<double> FiniteReading(const Value& value) {
  double reading = 0.0;
  if (IsNumeric(value.type())) {
    reading = value.NumericValue();
  } else if (value.CanCastTo(DataType::kReal)) {
    Result<Value> cast = value.CastTo(DataType::kReal);
    if (!cast.ok()) return std::nullopt;
    reading = cast->AsReal();
  } else {
    return std::nullopt;
  }
  if (!std::isfinite(reading)) return std::nullopt;
  return reading;
}

}  // namespace

AttributeStatistics ReferenceStatistics(const std::vector<Value>& column,
                                        DataType target) {
  AttributeStatistics stats;
  stats.evaluated_against = target;

  std::vector<Value> values;
  uint64_t numeric_count = 0;
  double numeric_min = 0.0;
  double numeric_max = 0.0;
  for (const Value& value : column) {
    ++stats.fill_status.total_count;
    if (value.is_null()) {
      ++stats.fill_status.null_count;
      continue;
    }
    if (!value.CanCastTo(target)) ++stats.fill_status.uncastable_count;
    if (IsNumeric(target)) {
      if (std::optional<double> reading = FiniteReading(value)) {
        numeric_min = numeric_count == 0 ? *reading
                                         : std::min(numeric_min, *reading);
        numeric_max = numeric_count == 0 ? *reading
                                         : std::max(numeric_max, *reading);
        ++numeric_count;
      }
    }
    values.push_back(value);
  }

  // Sorted-value order; each run of equal values becomes one group.
  std::sort(values.begin(), values.end(), ValueLess);
  std::vector<std::pair<const Value*, uint64_t>> sorted;
  for (const Value& value : values) {
    if (!sorted.empty() && *sorted.back().first == value) {
      ++sorted.back().second;
    } else {
      sorted.emplace_back(&value, 1);
    }
  }
  const uint64_t non_null = values.size();
  const double n = static_cast<double>(non_null);

  stats.constancy.non_null_count = static_cast<size_t>(non_null);
  stats.constancy.distinct_count = sorted.size();
  if (non_null > 0 && sorted.size() > 1) {
    double entropy = 0.0;
    for (const auto& [value, count] : sorted) {
      const double p = static_cast<double>(count) / n;
      entropy -= p * std::log2(p);
    }
    const double max_entropy = std::log2(n);
    stats.constancy.constancy =
        max_entropy < kEpsilon ? 1.0
                               : std::max(0.0, 1.0 - entropy / max_entropy);
  } else {
    stats.constancy.constancy = 1.0;
  }

  std::vector<std::pair<Value, double>> ranked;
  for (const auto& [value, count] : sorted) {
    ranked.emplace_back(*value, static_cast<double>(count) / n);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return ValueLess(a.first, b.first);
  });
  if (ranked.size() > TopKStats::kK) ranked.resize(TopKStats::kK);
  stats.top_k.top_values = std::move(ranked);
  for (const auto& [value, freq] : stats.top_k.top_values) {
    stats.top_k.coverage += freq;
  }

  if (target == DataType::kText) {
    std::map<std::string, uint64_t> pattern_counts;
    std::array<uint64_t, 256> char_counts{};
    uint64_t total_chars = 0;
    double length_sum = 0.0;
    for (const auto& [value, count] : sorted) {
      const std::string text = value->ToString();
      pattern_counts[GeneralizeToPattern(text)] += count;
      for (unsigned char c : text) char_counts[c] += count;
      total_chars += count * text.size();
      length_sum +=
          static_cast<double>(count) * static_cast<double>(text.size());
    }

    TextPatternStats pattern_stats;
    for (const auto& [pattern, count] : pattern_counts) {
      pattern_stats.patterns.emplace_back(pattern,
                                          static_cast<double>(count) / n);
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
          static_cast<double>(char_counts[i]) /
          static_cast<double>(total_chars);
    }
    stats.char_histogram = std::move(char_stats);

    const double mean = non_null == 0 ? 0.0 : length_sum / n;
    double variance = 0.0;
    for (const auto& [value, count] : sorted) {
      const double d = static_cast<double>(value->ToString().size()) - mean;
      variance += static_cast<double>(count) * d * d;
    }
    if (non_null > 0) variance /= n;
    stats.string_length = StringLengthStats{mean, std::sqrt(variance)};
  }

  if (IsNumeric(target) && numeric_count > 0) {
    std::vector<std::pair<double, uint64_t>> numbers;
    uint64_t sample_numeric = 0;
    for (const auto& [value, count] : sorted) {
      if (std::optional<double> reading = FiniteReading(*value)) {
        numbers.emplace_back(*reading, count);
        sample_numeric += count;
      }
    }
    const double denom = static_cast<double>(sample_numeric);
    double mean = 0.0;
    for (const auto& [v, count] : numbers) {
      mean += static_cast<double>(count) * v;
    }
    mean /= denom;
    double variance = 0.0;
    for (const auto& [v, count] : numbers) {
      variance += static_cast<double>(count) * (v - mean) * (v - mean);
    }
    variance /= denom;
    stats.mean = MeanStats{mean, std::sqrt(variance)};
    stats.value_range = ValueRangeStats{numeric_min, numeric_max};

    HistogramStats histogram;
    histogram.min = numeric_min;
    histogram.max = numeric_max;
    histogram.bucket_fractions.assign(HistogramStats::kBucketCount, 0.0);
    const double width =
        (numeric_max - numeric_min) / HistogramStats::kBucketCount;
    constexpr size_t kLastBucket = HistogramStats::kBucketCount - 1;
    for (const auto& [v, count] : numbers) {
      size_t bucket = 0;
      if (width >= kEpsilon) {
        // Overshoot, and NaN from a range too wide for a double, join
        // the last bucket.
        const double position = (v - numeric_min) / width;
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

DataType TwoPassType(const std::vector<Value>& cells) {
  bool saw_value = false;
  bool all_integer = true;
  bool all_real = true;
  for (const Value& cell : cells) {
    if (cell.is_null()) continue;
    saw_value = true;
    if (!cell.CanCastTo(DataType::kInteger)) all_integer = false;
    if (!cell.CanCastTo(DataType::kReal)) all_real = false;
  }
  if (!saw_value) return DataType::kText;
  if (all_integer) return DataType::kInteger;
  return all_real ? DataType::kReal : DataType::kText;
}

Result<AttributeStatistics> TwoPassStatistics(const std::vector<Value>& cells,
                                              const ProfileOptions& options) {
  StatisticsSketch sketch(TwoPassType(cells), options);
  for (const Value& cell : cells) EFES_RETURN_IF_ERROR(sketch.Absorb(cell));
  return sketch.Finalize();
}

}  // namespace efes
