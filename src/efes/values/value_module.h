// The value-heterogeneity estimation module (Section 5).
//
// The *value fit detector* aggregates source and target data into the
// statistics of Section 5.1 and runs the decision model (Algorithm 1) on
// every corresponding attribute pair. The *value transformation planner*
// proposes the cleaning tasks of Table 7; unlike structure repairs, value
// tasks have no interdependencies.

#ifndef EFES_VALUES_VALUE_MODULE_H_
#define EFES_VALUES_VALUE_MODULE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "efes/core/module.h"
#include "efes/profiling/statistics.h"

namespace efes {

/// The four heterogeneity classes produced by Algorithm 1.
enum class ValueHeterogeneityType {
  kTooFewSourceElements,
  kDifferentRepresentationsCritical,
  kDifferentRepresentations,
  kTooCoarseGrainedSourceValues,
  kTooFineGrainedSourceValues,
};

std::string_view ValueHeterogeneityTypeToString(ValueHeterogeneityType type);

/// One detected heterogeneity between a corresponding attribute pair,
/// with the "additional parameters" of Table 6.
struct ValueHeterogeneity {
  std::string source_database;
  std::string source_attribute;  // "songs.length"
  std::string target_attribute;  // "tracks.duration"
  ValueHeterogeneityType type =
      ValueHeterogeneityType::kDifferentRepresentations;
  /// Overall importance-weighted fit (1 = perfect; below the threshold
  /// triggers kDifferentRepresentations).
  double overall_fit = 1.0;
  /// Non-null source values / distinct source values — the Table 6
  /// "additional parameters".
  size_t source_values = 0;
  size_t source_distinct_values = 0;
  /// For kTooFewSourceElements: how many values are missing relative to
  /// the target's fill level. For critical representations: how many
  /// values cannot be cast.
  size_t affected_values = 0;
  /// Number of distinct text patterns among the source values — the
  /// number of format rules a conversion script needs.
  size_t source_pattern_count = 0;
  /// True when the representation difference is *systematic*: the source
  /// values follow at most a handful of formats, so one rule-based
  /// transformation script handles them all (the music-domain case,
  /// ms -> "m:ss"). False for irregular, hand-entered values that need a
  /// per-value mapping (the bibliographic case).
  bool systematic = true;
  /// Provenance-node id of this finding (0 = no recorder active).
  uint64_t provenance = 0;
};

struct ValueFitOptions {
  /// "We found 0.9 to be a good threshold to separate seamlessly
  /// integrating attribute pairs from those that had notably different
  /// characteristics."
  double fit_threshold = 0.9;

  /// Fill-fraction gap that makes the source "substantially fewer"
  /// (rule 1 of Algorithm 1).
  double fewer_values_gap = 0.25;

  /// Fraction of uncastable source values tolerated before they count as
  /// incompatible (rule 3).
  double incompatible_tolerance = 0.02;

  /// An attribute is domain-restricted when its values come from a small
  /// discrete domain: constancy above this, or few distinct values.
  double domain_constancy_threshold = 0.6;
  size_t domain_max_distinct = 24;

  /// A conversion counts as systematic (rule-based script) when the
  /// source values follow at most this many distinct text patterns.
  size_t max_format_rules = 6;

  /// When > 0, statistics are computed over at most this many rows per
  /// column (deterministic strided sample). Keeps the detector fast on
  /// very large instances; distinct-value counts then come from the
  /// sample (a lower bound). 0 = use every row.
  size_t sample_limit = 0;
};

class ValueComplexityReport : public ComplexityReport {
 public:
  explicit ValueComplexityReport(
      std::vector<ValueHeterogeneity> heterogeneities)
      : heterogeneities_(std::move(heterogeneities)) {}

  const std::vector<ValueHeterogeneity>& heterogeneities() const {
    return heterogeneities_;
  }

  std::string module_name() const override { return "values"; }
  /// Renders Table 6: heterogeneity | additional parameters.
  std::string ToText() const override;
  size_t ProblemCount() const override { return heterogeneities_.size(); }

 private:
  std::vector<ValueHeterogeneity> heterogeneities_;
};

/// Decides whether an attribute draws from a small discrete domain.
bool IsDomainRestricted(const AttributeStatistics& stats,
                        const ValueFitOptions& options);

/// Algorithm 1 on one attribute pair. `has_target_data` gates the
/// statistics-comparison rules (an empty target column characterizes
/// nothing).
std::vector<ValueHeterogeneityType> DetectValueHeterogeneities(
    const AttributeStatistics& source, const AttributeStatistics& target,
    bool has_target_data, const ValueFitOptions& options,
    double* overall_fit_out = nullptr);

class ValueModule : public EstimationModule {
 public:
  ValueModule() = default;
  explicit ValueModule(ValueFitOptions options) : options_(options) {}

  std::string name() const override { return "values"; }

  Result<std::unique_ptr<ComplexityReport>> AssessComplexity(
      const IntegrationScenario& scenario,
      const RunContext& context) const override;

  Result<std::vector<Task>> PlanTasks(
      const ComplexityReport& report, ExpectedQuality quality,
      const ExecutionSettings& settings) const override;

 private:
  ValueFitOptions options_;
};

}  // namespace efes

#endif  // EFES_VALUES_VALUE_MODULE_H_
