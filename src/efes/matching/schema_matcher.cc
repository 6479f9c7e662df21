#include "efes/matching/schema_matcher.h"

#include <algorithm>
#include <map>
#include <set>

#include "efes/common/parallel.h"
#include "efes/common/string_util.h"
#include "efes/profiling/profiler.h"
#include "efes/profiling/statistics.h"
#include "efes/common/metrics.h"

namespace efes {

namespace {

/// Instance evidence in [0, 1]: castability of source values to the
/// target type blended with the statistics fit of Section 5.1. Returns
/// -1 when either side lacks data; fails only when `profile` demands an
/// exact profile under an unsatisfiable --max-memory budget.
Result<double> InstanceScore(const Table& source_table, size_t source_column,
                             const Table& target_table, size_t target_column,
                             DataType target_type,
                             const ProfileOptions& profile,
                             ProfileCache* cache) {
  if (source_table.row_count() == 0 || target_table.row_count() == 0) {
    return -1.0;
  }
  EFES_ASSIGN_OR_RETURN(AttributeStatistics source_stats,
                        ProfileColumn(source_table.column(source_column),
                                      target_type, profile, cache));
  EFES_ASSIGN_OR_RETURN(AttributeStatistics target_stats,
                        ProfileColumn(target_table.column(target_column),
                                      target_type, profile, cache));
  double castable = source_stats.fill_status.CastableFraction();
  double fit = OverallFit(source_stats, target_stats);
  return 0.5 * castable + 0.5 * fit;
}

}  // namespace

Result<double> SchemaMatcher::ScoreAttributePair(
    const Database& source, const std::string& source_relation,
    const AttributeDef& source_attribute, const Database& target,
    const std::string& target_relation, const AttributeDef& target_attribute,
    const ProfileOptions& profile, ProfileCache* cache) const {
  static Counter& pairs_scored =
      MetricsRegistry::Global().GetCounter("matching.score.pairs");
  static Counter& instance_pairs =
      MetricsRegistry::Global().GetCounter("matching.score.instance_pairs");
  pairs_scored.Increment();

  double name = NameSimilarity(source_attribute.name, target_attribute.name);
  double token = TokenJaccard(source_attribute.name, target_attribute.name);

  double instance = -1.0;
  if (options_.use_instances) {
    auto source_table = source.table(source_relation);
    auto target_table = target.table(target_relation);
    if (source_table.ok() && target_table.ok()) {
      auto source_index =
          (*source_table)->def().AttributeIndex(source_attribute.name);
      auto target_index =
          (*target_table)->def().AttributeIndex(target_attribute.name);
      if (source_index.has_value() && target_index.has_value()) {
        instance_pairs.Increment();
        EFES_ASSIGN_OR_RETURN(
            instance,
            InstanceScore(**source_table, *source_index, **target_table,
                          *target_index, target_attribute.type, profile,
                          cache));
      }
    }
  }

  double name_weight = options_.name_weight;
  double token_weight = options_.token_weight;
  double instance_weight = options_.instance_weight;
  if (instance < 0.0) {
    // No instance evidence: redistribute its weight onto the name signals.
    double scale = name_weight + token_weight;
    if (scale > 0.0) {
      name_weight += instance_weight * (name_weight / scale);
      token_weight += instance_weight * (token_weight / scale);
    }
    instance_weight = 0.0;
    instance = 0.0;
  }
  double total = name_weight + token_weight + instance_weight;
  if (total <= 0.0) return 0.0;
  return (name * name_weight + token * token_weight +
          instance * instance_weight) /
         total;
}

Result<std::vector<MatchCandidate>> SchemaMatcher::ScoreRelations(
    const Database& source, const Database& target,
    const ProfileOptions& profile, ProfileCache* cache) const {
  // All (source relation, target relation) pairs in canonical schema
  // order; each pair's score is independent (dominated by the per-pair
  // instance statistics), so scoring fans out over the shared pool and
  // the results merge back by pair index — bit-identical for any thread
  // count.
  std::vector<std::pair<const RelationDef*, const RelationDef*>> pairs;
  for (const RelationDef& source_rel : source.schema().relations()) {
    for (const RelationDef& target_rel : target.schema().relations()) {
      pairs.emplace_back(&source_rel, &target_rel);
    }
  }
  std::vector<MatchCandidate> candidates(pairs.size());
  EFES_RETURN_IF_ERROR(ParallelFor(pairs.size(), [&](size_t i) -> Status {
    const RelationDef& source_rel = *pairs[i].first;
    const RelationDef& target_rel = *pairs[i].second;
    // Relation score: name similarity blended with the mean of each
    // target attribute's best source-attribute score.
    double name = std::max(NameSimilarity(source_rel.name(),
                                          target_rel.name()),
                           TokenJaccard(source_rel.name(),
                                        target_rel.name()));
    double attribute_sum = 0.0;
    size_t attribute_count = 0;
    for (const AttributeDef& target_attr : target_rel.attributes()) {
      double best = 0.0;
      for (const AttributeDef& source_attr : source_rel.attributes()) {
        EFES_ASSIGN_OR_RETURN(
            double score,
            ScoreAttributePair(source, source_rel.name(), source_attr,
                               target, target_rel.name(), target_attr,
                               profile, cache));
        best = std::max(best, score);
      }
      attribute_sum += best;
      ++attribute_count;
    }
    double attribute_mean =
        attribute_count == 0 ? 0.0 : attribute_sum / attribute_count;
    MatchCandidate& candidate = candidates[i];
    candidate.source_relation = source_rel.name();
    candidate.target_relation = target_rel.name();
    // Attribute-level evidence dominates: two relations about the
    // same entities often carry dissimilar names (albums vs records)
    // but similar attribute sets.
    candidate.score = 0.3 * name + 0.7 * attribute_mean;
    return Status::OK();
  }));
  std::sort(candidates.begin(), candidates.end(),
            [](const MatchCandidate& a, const MatchCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.source_relation != b.source_relation) {
                return a.source_relation < b.source_relation;
              }
              return a.target_relation < b.target_relation;
            });
  return candidates;
}

Result<CorrespondenceSet> SchemaMatcher::Match(const Database& source,
                                               const Database& target,
                                               const ProfileOptions& profile,
                                               ProfileCache* cache) const {
  CorrespondenceSet correspondences;

  // Greedy 1:1 relation matching by descending score.
  EFES_ASSIGN_OR_RETURN(std::vector<MatchCandidate> relation_candidates,
                        ScoreRelations(source, target, profile, cache));
  std::set<std::string> used_source;
  std::set<std::string> used_target;
  std::vector<std::pair<std::string, std::string>> relation_pairs;
  for (const MatchCandidate& candidate : relation_candidates) {
    if (candidate.score < options_.min_relation_confidence) break;
    if (used_source.count(candidate.source_relation) > 0 ||
        used_target.count(candidate.target_relation) > 0) {
      continue;
    }
    used_source.insert(candidate.source_relation);
    used_target.insert(candidate.target_relation);
    Correspondence corr;
    corr.source_relation = candidate.source_relation;
    corr.target_relation = candidate.target_relation;
    corr.confidence = candidate.score;
    correspondences.Add(std::move(corr));
    relation_pairs.emplace_back(candidate.source_relation,
                                candidate.target_relation);
  }

  // Greedy 1:1 attribute matching within each matched relation pair. The
  // pairwise scores are computed in parallel (canonical attribute-pair
  // order), then filtered and ranked sequentially.
  for (const auto& [source_relation, target_relation] : relation_pairs) {
    const RelationDef* source_rel = *source.schema().relation(source_relation);
    const RelationDef* target_rel = *target.schema().relation(target_relation);
    std::vector<std::pair<const AttributeDef*, const AttributeDef*>>
        attribute_pairs;
    for (const AttributeDef& source_attr : source_rel->attributes()) {
      for (const AttributeDef& target_attr : target_rel->attributes()) {
        attribute_pairs.emplace_back(&source_attr, &target_attr);
      }
    }
    std::vector<double> scores(attribute_pairs.size(), 0.0);
    EFES_RETURN_IF_ERROR(
        ParallelFor(attribute_pairs.size(), [&](size_t i) -> Status {
          EFES_ASSIGN_OR_RETURN(
              scores[i],
              ScoreAttributePair(source, source_relation,
                                 *attribute_pairs[i].first, target,
                                 target_relation, *attribute_pairs[i].second,
                                 profile, cache));
          return Status::OK();
        }));
    std::vector<MatchCandidate> attribute_candidates;
    for (size_t i = 0; i < attribute_pairs.size(); ++i) {
      double score = scores[i];
      if (score < options_.min_attribute_confidence) continue;
      MatchCandidate candidate;
      candidate.source_relation = source_relation;
      candidate.source_attribute = attribute_pairs[i].first->name;
      candidate.target_relation = target_relation;
      candidate.target_attribute = attribute_pairs[i].second->name;
      candidate.score = score;
      attribute_candidates.push_back(std::move(candidate));
    }
    std::sort(attribute_candidates.begin(), attribute_candidates.end(),
              [](const MatchCandidate& a, const MatchCandidate& b) {
                if (a.score != b.score) return a.score > b.score;
                if (a.source_attribute != b.source_attribute) {
                  return a.source_attribute < b.source_attribute;
                }
                return a.target_attribute < b.target_attribute;
              });
    std::set<std::string> used_source_attrs;
    std::set<std::string> used_target_attrs;
    for (const MatchCandidate& candidate : attribute_candidates) {
      if (used_source_attrs.count(candidate.source_attribute) > 0 ||
          used_target_attrs.count(candidate.target_attribute) > 0) {
        continue;
      }
      used_source_attrs.insert(candidate.source_attribute);
      used_target_attrs.insert(candidate.target_attribute);
      Correspondence corr;
      corr.source_relation = candidate.source_relation;
      corr.source_attribute = candidate.source_attribute;
      corr.target_relation = candidate.target_relation;
      corr.target_attribute = candidate.target_attribute;
      corr.confidence = candidate.score;
      correspondences.Add(std::move(corr));
    }
  }

  return correspondences;
}

}  // namespace efes
