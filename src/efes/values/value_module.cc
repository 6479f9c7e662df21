#include "efes/values/value_module.h"

#include <set>
#include <sstream>

#include "efes/common/parallel.h"
#include "efes/common/string_util.h"
#include "efes/common/text_table.h"
#include "efes/profiling/profiler.h"
#include "efes/provenance/provenance.h"

namespace efes {

std::string_view ValueHeterogeneityTypeToString(
    ValueHeterogeneityType type) {
  switch (type) {
    case ValueHeterogeneityType::kTooFewSourceElements:
      return "Too few source elements";
    case ValueHeterogeneityType::kDifferentRepresentationsCritical:
      return "Different value representations (critical)";
    case ValueHeterogeneityType::kDifferentRepresentations:
      return "Different value representations";
    case ValueHeterogeneityType::kTooCoarseGrainedSourceValues:
      return "Too coarse-grained source values";
    case ValueHeterogeneityType::kTooFineGrainedSourceValues:
      return "Too fine-grained source values";
  }
  return "unknown";
}

std::string ValueComplexityReport::ToText() const {
  if (heterogeneities_.empty()) {
    return "(no value heterogeneities)\n";
  }
  TextTable table;
  table.SetHeader({"Value heterogeneity", "Additional parameters"});
  for (const ValueHeterogeneity& h : heterogeneities_) {
    std::ostringstream name;
    name << ValueHeterogeneityTypeToString(h.type) << " ("
         << h.source_attribute << " -> " << h.target_attribute << ")";
    std::ostringstream params;
    params << h.source_values << " source values, "
           << h.source_distinct_values << " distinct source values";
    if (h.affected_values > 0) {
      params << ", " << h.affected_values << " affected";
    }
    params << ", fit " << FormatDouble(h.overall_fit, 3);
    table.AddRow({name.str(), params.str()});
  }
  return table.ToString();
}

bool IsDomainRestricted(const AttributeStatistics& stats,
                        const ValueFitOptions& options) {
  if (stats.constancy.non_null_count == 0) return false;
  // A small distinct count only indicates a discrete domain when the
  // values actually repeat — a 20-row column with 20 distinct values is
  // merely small, not domain-restricted.
  if (stats.constancy.distinct_count <= options.domain_max_distinct &&
      stats.constancy.distinct_count * 2 <=
          stats.constancy.non_null_count) {
    return true;
  }
  return stats.constancy.constancy >= options.domain_constancy_threshold;
}

std::vector<ValueHeterogeneityType> DetectValueHeterogeneities(
    const AttributeStatistics& source, const AttributeStatistics& target,
    bool has_target_data, const ValueFitOptions& options,
    double* overall_fit_out) {
  std::vector<ValueHeterogeneityType> detected;
  if (overall_fit_out != nullptr) *overall_fit_out = 1.0;

  // Rule 1: substantiallyFewerSourceValues(Ss, St). Compares non-null
  // fractions: an uncastable value is present, merely misrepresented.
  if (has_target_data &&
      source.fill_status.NonNullFraction() + options.fewer_values_gap <
          target.fill_status.NonNullFraction()) {
    detected.push_back(ValueHeterogeneityType::kTooFewSourceElements);
  }

  // Rule 2: hasIncompatibleValues(Ss) — source values that cannot be cast
  // to the target datatype.
  bool critical = source.fill_status.CastableFraction() <
                  1.0 - options.incompatible_tolerance;
  if (critical) {
    detected.push_back(
        ValueHeterogeneityType::kDifferentRepresentationsCritical);
  }

  // Rules 3-5: granularity and domain-specific differences. Without
  // target data there is nothing to characterize against; with a critical
  // representation problem already established, a second (uncritical)
  // representation finding would double-report the same defect.
  if (critical || !has_target_data ||
      source.constancy.non_null_count == 0) {
    return detected;
  }
  bool source_restricted = IsDomainRestricted(source, options);
  bool target_restricted = IsDomainRestricted(target, options);
  if (source_restricted && !target_restricted) {
    detected.push_back(
        ValueHeterogeneityType::kTooCoarseGrainedSourceValues);
  } else if (!source_restricted && target_restricted) {
    detected.push_back(ValueHeterogeneityType::kTooFineGrainedSourceValues);
  } else {
    double fit = OverallFit(source, target);
    if (overall_fit_out != nullptr) *overall_fit_out = fit;
    if (fit < options.fit_threshold) {
      detected.push_back(ValueHeterogeneityType::kDifferentRepresentations);
    }
  }
  return detected;
}

Result<std::unique_ptr<ComplexityReport>> ValueModule::AssessComplexity(
    const IntegrationScenario& scenario, const RunContext& context) const {
  std::vector<ValueHeterogeneity> heterogeneities;

  // Correspondences into target foreign-key attributes are key
  // remappings: their "values" are surrogate identifiers the mapping
  // regenerates, so representation differences there are mapping work
  // (handled by the mapping module), not value cleaning.
  std::set<std::string> target_fk_attributes;
  for (const Constraint& c : scenario.target.schema().constraints()) {
    if (c.kind != ConstraintKind::kForeignKey) continue;
    for (const std::string& attribute : c.attributes) {
      target_fk_attributes.insert(c.relation + "." + attribute);
    }
  }

  // Pass 1 (sequential): resolve every attribute-level correspondence
  // into a self-contained work item, preserving the scenario's canonical
  // source/correspondence order and its error behaviour. Each item asks
  // for two profiles, its source and then its target column, read from
  // the tables in place unless the sample limit cuts them.
  struct WorkItem {
    const Correspondence* corr = nullptr;
    std::string source_database;
    const std::vector<Value>* source_sample = nullptr;
    AttributeDef target_attribute;
    bool has_target_data = false;
  };
  std::vector<WorkItem> items;
  std::vector<ProfileRequest> requests;
  ProfileMemo call_local;
  ProfileMemo& memo = context.memo != nullptr ? *context.memo : call_local;
  for (const SourceBinding& source : scenario.sources) {
    for (const Correspondence& corr : source.correspondences.all()) {
      if (!corr.is_attribute_level()) continue;
      if (target_fk_attributes.count(corr.target_relation + "." +
                                     corr.target_attribute) > 0) {
        continue;
      }

      EFES_ASSIGN_OR_RETURN(const Table* source_table,
                            source.database.table(corr.source_relation));
      EFES_ASSIGN_OR_RETURN(const Table* target_table,
                            scenario.target.table(corr.target_relation));
      EFES_ASSIGN_OR_RETURN(
          const std::vector<Value>* source_column,
          source_table->ColumnByName(corr.source_attribute));
      EFES_ASSIGN_OR_RETURN(
          const std::vector<Value>* target_column,
          target_table->ColumnByName(corr.target_attribute));
      EFES_ASSIGN_OR_RETURN(
          AttributeDef target_attribute,
          target_table->def().Attribute(corr.target_attribute));

      WorkItem item;
      item.corr = &corr;
      item.source_database = source.database.name();
      item.source_sample = memo.Sample(*source_column, options_.sample_limit);
      requests.push_back(
          ProfileRequest{item.source_sample, target_attribute.type});
      requests.push_back(ProfileRequest{
          memo.Sample(*target_column, options_.sample_limit),
          target_attribute.type});
      item.target_attribute = std::move(target_attribute);
      item.has_target_data = !target_column->empty();
      items.push_back(std::move(item));
    }
  }

  // Provenance: thresholds are recorded once, up front; each item's
  // statistics and findings are recorded in pass 3, in item order, on
  // this thread — ids stay canonical for any thread count.
  ProvenanceRecorder* prov = context.recorder;
  uint64_t fit_threshold_node = 0;
  uint64_t fewer_gap_node = 0;
  uint64_t incompatible_node = 0;
  if (prov != nullptr) {
    fit_threshold_node =
        prov->RecordValue(ProvenanceKind::kThreshold,
                          "threshold fit_threshold", "", options_.fit_threshold);
    fewer_gap_node = prov->RecordValue(ProvenanceKind::kThreshold,
                                       "threshold fewer_values_gap", "",
                                       options_.fewer_values_gap);
    incompatible_node = prov->RecordValue(ProvenanceKind::kThreshold,
                                          "threshold incompatible_tolerance",
                                          "", options_.incompatible_tolerance);
  }

  // One batch profiles every distinct column of every item: a target
  // column shared by several sources' correspondences is profiled once,
  // and the run's memo keeps every profile for the modules after this
  // one. Item i's statistics are stats[2 * i] (source) and
  // stats[2 * i + 1] (target). The batch runs after the thresholds are
  // recorded, so a module that fails here (an exact --max-memory
  // overflow) leaves the run's later provenance ids where they were.
  EFES_ASSIGN_OR_RETURN(
      std::vector<AttributeStatistics> stats,
      ProfileColumns(requests, context.profile, context.cache, &memo));

  // Pass 2 (parallel): detection and the source pattern count fan out
  // per item and merge back in item order, keeping the report
  // deterministic.
  struct ItemResult {
    double overall_fit = 1.0;
    std::vector<ValueHeterogeneityType> types;
    size_t source_pattern_count = 0;
  };
  std::vector<ItemResult> results(items.size());
  EFES_RETURN_IF_ERROR(
      ParallelFor(items.size(), [&](size_t index) -> Status {
        const WorkItem& item = items[index];
        ItemResult& computed = results[index];
        computed.types = DetectValueHeterogeneities(
            stats[2 * index], stats[2 * index + 1], item.has_target_data,
            options_, &computed.overall_fit);

        // Count the distinct text patterns of the source values: the
        // number of format rules a conversion script would need.
        std::set<std::string> source_patterns;
        for (const Value& value : *item.source_sample) {
          if (value.is_null()) continue;
          if (value.type() == DataType::kText) {
            source_patterns.insert(GeneralizeToPattern(value.AsText()));
          } else {
            source_patterns.insert(GeneralizeToPattern(value.ToString()));
          }
          if (source_patterns.size() > options_.max_format_rules) break;
        }
        computed.source_pattern_count = source_patterns.size();
        return Status::OK();
      }));

  // Pass 3 (sequential): record each item's provenance and assemble the
  // heterogeneity list, in item order.
  for (size_t index = 0; index < items.size(); ++index) {
    const WorkItem& item = items[index];
    const Correspondence& corr = *item.corr;
    const AttributeStatistics& source_stats = stats[2 * index];
    const AttributeStatistics& target_stats = stats[2 * index + 1];
    const ItemResult& computed = results[index];
    std::vector<uint64_t> item_findings(computed.types.size(), 0);
    if (prov != nullptr && !computed.types.empty()) {
      const std::string subject =
          item.source_database + ":" + corr.source_relation + "." +
          corr.source_attribute + " -> " + corr.target_relation + "." +
          corr.target_attribute;
      auto statistic = [&](const char* label, double value) {
        return prov->RecordValue(ProvenanceKind::kStatistic, label, subject,
                                 value);
      };
      const uint64_t src_fill =
          statistic("statistic source.non_null_fraction",
                    source_stats.fill_status.NonNullFraction());
      const uint64_t tgt_fill =
          statistic("statistic target.non_null_fraction",
                    target_stats.fill_status.NonNullFraction());
      const uint64_t castable =
          statistic("statistic source.castable_fraction",
                    source_stats.fill_status.CastableFraction());
      const uint64_t distinct = statistic(
          "statistic source.distinct_count",
          static_cast<double>(source_stats.constancy.distinct_count));
      const uint64_t non_null = statistic(
          "statistic source.non_null_count",
          static_cast<double>(source_stats.constancy.non_null_count));
      const uint64_t fit =
          statistic("statistic overall_fit", computed.overall_fit);
      const uint64_t patterns =
          statistic("statistic source.pattern_count",
                    static_cast<double>(computed.source_pattern_count));
      for (size_t ti = 0; ti < computed.types.size(); ++ti) {
        const ValueHeterogeneityType type = computed.types[ti];
        std::vector<uint64_t> inputs;
        switch (type) {
          case ValueHeterogeneityType::kTooFewSourceElements:
            inputs = {fewer_gap_node, src_fill, tgt_fill};
            break;
          case ValueHeterogeneityType::kDifferentRepresentationsCritical:
            inputs = {incompatible_node, castable, non_null, patterns};
            break;
          case ValueHeterogeneityType::kDifferentRepresentations:
            inputs = {fit_threshold_node, fit, patterns};
            break;
          case ValueHeterogeneityType::kTooCoarseGrainedSourceValues:
          case ValueHeterogeneityType::kTooFineGrainedSourceValues:
            inputs = {distinct, non_null};
            break;
        }
        item_findings[ti] = prov->Record(
            ProvenanceKind::kFinding,
            "value heterogeneity: " +
                std::string(ValueHeterogeneityTypeToString(type)),
            subject, std::move(inputs));
      }
    }
    for (size_t ti = 0; ti < computed.types.size(); ++ti) {
      const ValueHeterogeneityType type = computed.types[ti];
      // Missing mandatory values are structural NOT NULL conflicts; the
      // structure module detects and plans them. Reporting them here
      // too would double-count the same repair.
      if (type == ValueHeterogeneityType::kTooFewSourceElements &&
          scenario.target.schema().IsNotNullable(corr.target_relation,
                                                 corr.target_attribute)) {
        continue;
      }
      ValueHeterogeneity h;
      h.source_database = item.source_database;
      h.source_attribute = corr.source_relation + "." + corr.source_attribute;
      h.target_attribute = corr.target_relation + "." + corr.target_attribute;
      h.type = type;
      h.overall_fit = computed.overall_fit;
      h.source_values = source_stats.constancy.non_null_count;
      h.source_distinct_values = source_stats.constancy.distinct_count;
      h.source_pattern_count = computed.source_pattern_count;
      h.systematic =
          computed.source_pattern_count <= options_.max_format_rules;
      if (type == ValueHeterogeneityType::kTooFewSourceElements) {
        double gap = target_stats.fill_status.NonNullFraction() -
                     source_stats.fill_status.NonNullFraction();
        h.affected_values = static_cast<size_t>(
            gap * static_cast<double>(source_stats.fill_status.total_count));
      } else if (type ==
                 ValueHeterogeneityType::kDifferentRepresentationsCritical) {
        h.affected_values = source_stats.fill_status.uncastable_count;
      }
      h.provenance = item_findings[ti];
      heterogeneities.push_back(std::move(h));
    }
  }

  auto report =
      std::make_unique<ValueComplexityReport>(std::move(heterogeneities));
  if (prov != nullptr) {
    std::vector<uint64_t> finding_nodes;
    for (const ValueHeterogeneity& h : report->heterogeneities()) {
      finding_nodes.push_back(h.provenance);
    }
    report->set_provenance_node(prov->RecordValue(
        ProvenanceKind::kFinding, "value assessment", "",
        static_cast<double>(report->heterogeneities().size()),
        std::move(finding_nodes)));
  }
  return std::unique_ptr<ComplexityReport>(std::move(report));
}

Result<std::vector<Task>> ValueModule::PlanTasks(
    const ComplexityReport& report, ExpectedQuality quality,
    const ExecutionSettings& settings) const {
  (void)settings;
  const auto* value_report =
      dynamic_cast<const ValueComplexityReport*>(&report);
  if (value_report == nullptr) {
    return Status::InvalidArgument(
        "ValueModule received a foreign complexity report");
  }

  bool high = quality == ExpectedQuality::kHighQuality;
  std::vector<Task> tasks;
  for (const ValueHeterogeneity& h : value_report->heterogeneities()) {
    // Table 7: for a low-effort result, most heterogeneities are simply
    // ignored; only critical representations force an action.
    std::optional<TaskType> type;
    switch (h.type) {
      case ValueHeterogeneityType::kTooFewSourceElements:
        if (high) type = TaskType::kAddValues;
        break;
      case ValueHeterogeneityType::kDifferentRepresentationsCritical:
        type = high ? TaskType::kConvertValues : TaskType::kDropValues;
        break;
      case ValueHeterogeneityType::kDifferentRepresentations:
        if (high) type = TaskType::kConvertValues;
        break;
      case ValueHeterogeneityType::kTooFineGrainedSourceValues:
        if (high) type = TaskType::kGeneralizeValues;
        break;
      case ValueHeterogeneityType::kTooCoarseGrainedSourceValues:
        if (high) type = TaskType::kRefineValues;
        break;
    }
    if (!type.has_value()) continue;

    Task task;
    task.type = *type;
    task.category = TaskCategory::kCleaningValues;
    task.quality = quality;
    task.subject = h.source_attribute + " -> " + h.target_attribute;
    task.parameters[task_params::kValues] =
        static_cast<double>(h.type ==
                                    ValueHeterogeneityType::kTooFewSourceElements
                                ? h.affected_values
                                : h.source_values);
    // For a systematic conversion the practitioner writes one rule per
    // format, so the Table 9 function's #dist-vals is the format count;
    // only irregular values need a per-distinct-value mapping. (This
    // resolves the paper's own Table 8, where converting 260,923 distinct
    // duration values costs 15 minutes: one script.)
    double dist_vals = static_cast<double>(h.source_distinct_values);
    if (*type == TaskType::kConvertValues && h.systematic) {
      dist_vals = static_cast<double>(h.source_pattern_count);
    }
    task.parameters[task_params::kDistinctValues] = dist_vals;
    if (h.provenance != 0) task.provenance.push_back(h.provenance);
    tasks.push_back(std::move(task));
  }
  return tasks;
}

}  // namespace efes
