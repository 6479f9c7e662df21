#include "efes/scenario/ground_truth.h"

#include <cmath>

#include "efes/cache/profile_cache.h"
#include "efes/common/random.h"
#include "efes/dedup/dedup_module.h"
#include "efes/mapping/mapping_module.h"
#include "efes/profiling/profiler.h"
#include "efes/structure/structure_module.h"
#include "efes/values/value_module.h"

namespace efes {

namespace {

uint64_t HashString(const std::string& text) {
  // FNV-1a.
  uint64_t hash = 1469598103934665603ULL;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Multiplicative lognormal human-variance factor.
double Noise(Random& rng, double sigma) {
  return std::exp(rng.Gaussian(0.0, sigma));
}

}  // namespace

Result<MeasuredEffort> SimulateMeasuredEffort(
    const IntegrationScenario& scenario, ExpectedQuality quality,
    uint64_t seed, const GroundTruthModel& model) {
  uint64_t mixed_seed = seed ^ HashString(scenario.name) ^
                        (quality == ExpectedQuality::kHighQuality
                             ? 0x9e3779b97f4a7c15ULL
                             : 0x2545f4914f6cdd1dULL);
  Random rng(mixed_seed);
  MeasuredEffort measured;
  bool high = quality == ExpectedQuality::kHighQuality;
  // The detectors profile through the process default cache, with
  // default options and no recorder, and share one memo, as the modules
  // of an engine run do.
  ProfileMemo memo;
  RunContext context;
  context.cache = ProfileCache::Active();
  context.memo = &memo;

  // --- Mapping: the practitioner writes one INSERT..SELECT per connection
  // and first explores the source schemas.
  {
    MappingModule detector;
    EFES_ASSIGN_OR_RETURN(auto report,
                          detector.AssessComplexity(scenario, context));
    const auto& mapping_report =
        static_cast<const MappingComplexityReport&>(*report);
    double minutes = model.scenario_setup;
    for (const SourceBinding& source : scenario.sources) {
      minutes += model.per_source_relation *
                 static_cast<double>(
                     source.database.schema().relations().size());
    }
    for (const MappingConnection& connection :
         mapping_report.connections()) {
      double connection_minutes =
          model.per_connection_base +
          model.per_join_table *
              std::pow(static_cast<double>(connection.source_tables.size()),
                       model.join_exponent) +
          model.per_copied_attribute *
              static_cast<double>(connection.attribute_count) +
          (connection.needs_key_generation ? model.per_generated_key : 0.0) +
          model.per_foreign_key *
              static_cast<double>(connection.foreign_key_count);
      minutes += connection_minutes * Noise(rng, model.noise_sigma);
    }
    measured.mapping_minutes = minutes;
  }

  // --- Structure cleaning: the true violations in the data.
  {
    StructureModule detector;
    EFES_ASSIGN_OR_RETURN(auto report,
                          detector.AssessComplexity(scenario, context));
    const auto& structure_report =
        static_cast<const StructureComplexityReport&>(*report);
    double minutes = 0.0;
    for (const SourceStructureAssessment& source :
         structure_report.sources()) {
      for (const StructureConflict& conflict : source.conflicts) {
        double count = static_cast<double>(conflict.violation_count);
        double item = 0.0;
        if (!high) {
          item = model.structure_script_low;
        } else {
          switch (conflict.kind) {
            case StructuralConflictKind::kNotNullViolated:
              item = model.missing_value_each * count;
              break;
            case StructuralConflictKind::kMultipleAttributeValues:
              item = model.merge_script + model.merge_each * count;
              break;
            case StructuralConflictKind::kValueWithoutTuple:
              item = model.detached_script + model.detached_each * count +
                     // new tuples need their mandatory values investigated
                     model.missing_value_each * count;
              break;
            case StructuralConflictKind::kUniqueViolated:
              item = model.unique_script +
                     model.merge_each * count;  // verify merged rows
              break;
            case StructuralConflictKind::kForeignKeyViolated:
              item = model.dangling_each * count;
              break;
          }
        }
        minutes += item * Noise(rng, model.noise_sigma);
      }
    }
    measured.structure_minutes = minutes;
  }

  // --- Value cleaning: conversions actually required.
  {
    ValueModule detector;
    EFES_ASSIGN_OR_RETURN(auto report,
                          detector.AssessComplexity(scenario, context));
    const auto& value_report =
        static_cast<const ValueComplexityReport&>(*report);
    double minutes = 0.0;
    for (const ValueHeterogeneity& heterogeneity :
         value_report.heterogeneities()) {
      double distinct =
          static_cast<double>(heterogeneity.source_distinct_values);
      double values = static_cast<double>(heterogeneity.source_values);
      // A systematic conversion is one rule-based script (plus a rule per
      // source format and light validation); irregular values force a
      // per-distinct-value mapping with a sublinear learning effect.
      double convert_cost =
          heterogeneity.systematic
              ? model.convert_script +
                    1.5 * static_cast<double>(
                              heterogeneity.source_pattern_count) +
                    0.002 * values
              : model.convert_script +
                    model.convert_each_distinct *
                        std::pow(distinct, model.convert_distinct_exponent);
      double item = 0.0;
      switch (heterogeneity.type) {
        case ValueHeterogeneityType::kTooFewSourceElements:
          if (high) {
            item = model.add_value_each *
                   static_cast<double>(heterogeneity.affected_values);
          }
          break;
        case ValueHeterogeneityType::kDifferentRepresentationsCritical:
          item = high ? convert_cost : model.drop_script_low;
          break;
        case ValueHeterogeneityType::kDifferentRepresentations:
          if (high) item = convert_cost;
          break;
        case ValueHeterogeneityType::kTooFineGrainedSourceValues:
          if (high) item = model.generalize_each_distinct * distinct;
          break;
        case ValueHeterogeneityType::kTooCoarseGrainedSourceValues:
          if (high) item = model.refine_each_value * values;
          break;
      }
      if (item > 0.0) {
        minutes += item * Noise(rng, model.noise_sigma);
      }
    }
    measured.value_minutes = minutes;
  }

  // --- Deduplication: the practitioner reviews the candidate pairs the
  // blocking actually surfaces and merges the confirmed clusters.
  {
    DedupModule detector;
    EFES_ASSIGN_OR_RETURN(auto report,
                          detector.AssessComplexity(scenario, context));
    const auto& dedup_report =
        static_cast<const DedupComplexityReport&>(*report);
    double minutes = 0.0;
    for (const DuplicateClusterFinding& finding : dedup_report.findings()) {
      double item = 0.0;
      if (!high) {
        item = model.dedup_drop_script_low;
      } else {
        item = model.dedup_review_setup +
               model.cluster_merge_each *
                   static_cast<double>(finding.cluster_count) +
               model.pair_check_each *
                   std::pow(static_cast<double>(finding.verification_pairs),
                            model.pair_exponent);
      }
      minutes += item * Noise(rng, model.noise_sigma);
    }
    measured.dedup_minutes = minutes;
  }

  return measured;
}

}  // namespace efes
