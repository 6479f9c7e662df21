#include "dedup_reference.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "efes/profiling/profiler.h"
#include "efes/profiling/statistics.h"

namespace efes {

namespace {

/// One source relation contributing to a target relation.
struct Feed {
  std::string label;  // "database:relation"
  /// Target attribute -> the feed's corresponded source column.
  std::map<std::string, const std::vector<Value>*> columns;
};

double Uniqueness(const AttributeStatistics& stats) {
  if (stats.constancy.non_null_count == 0) return 0.0;
  return static_cast<double>(stats.constancy.distinct_count) /
         static_cast<double>(stats.constancy.non_null_count);
}

/// The strided sample of at most `limit` rows the module profiles.
std::vector<Value> SampleOf(const std::vector<Value>& column, size_t limit) {
  if (limit == 0 || column.size() <= limit) return column;
  std::vector<Value> sample;
  const double stride =
      static_cast<double>(column.size()) / static_cast<double>(limit);
  for (size_t i = 0; i < limit; ++i) {
    sample.push_back(column[static_cast<size_t>(i * stride)]);
  }
  return sample;
}

}  // namespace

std::string ReferenceNormalizeEntityKey(std::string_view text) {
  std::string normalized;
  bool pending_space = false;
  for (char c : text) {
    unsigned char uc = static_cast<unsigned char>(c);
    if (std::isspace(uc)) {
      if (!normalized.empty()) pending_space = true;
      continue;
    }
    if (pending_space) {
      normalized.push_back(' ');
      pending_space = false;
    }
    normalized.push_back(static_cast<char>(std::tolower(uc)));
  }
  return normalized;
}

Result<std::vector<DuplicateClusterFinding>> ReferenceDedupFindings(
    const IntegrationScenario& scenario, const DedupOptions& options) {
  std::set<std::string> surrogate_attributes;
  for (const Constraint& c : scenario.target.schema().constraints()) {
    if (c.kind != ConstraintKind::kPrimaryKey &&
        c.kind != ConstraintKind::kForeignKey) {
      continue;
    }
    for (const std::string& attribute : c.attributes) {
      surrogate_attributes.insert(c.relation + "." + attribute);
    }
  }

  // Feeds per target relation, one per (source database, source
  // relation), in scenario order.
  std::map<std::string, std::vector<Feed>> feeds_by_relation;
  for (const SourceBinding& source : scenario.sources) {
    std::map<std::string, size_t> feed_index;
    for (const Correspondence& corr : source.correspondences.all()) {
      if (!corr.is_attribute_level()) continue;
      if (surrogate_attributes.count(corr.target_relation + "." +
                                     corr.target_attribute) > 0) {
        continue;
      }
      EFES_ASSIGN_OR_RETURN(const Table* source_table,
                            source.database.table(corr.source_relation));
      EFES_ASSIGN_OR_RETURN(
          const std::vector<Value>* source_column,
          source_table->ColumnByName(corr.source_attribute));
      std::vector<Feed>& feeds = feeds_by_relation[corr.target_relation];
      const std::string feed_key =
          source.database.name() + ":" + corr.source_relation;
      auto [it, inserted] =
          feed_index.emplace(feed_key + "\n" + corr.target_relation, 0);
      if (inserted) {
        it->second = feeds.size();
        feeds.push_back(Feed{feed_key, {}});
      }
      feeds[it->second].columns[corr.target_attribute] = source_column;
    }
  }

  std::vector<DuplicateClusterFinding> findings;
  for (const auto& [relation, feeds] : feeds_by_relation) {
    if (feeds.size() < 2) continue;
    EFES_ASSIGN_OR_RETURN(const Table* target_table,
                          scenario.target.table(relation));
    std::vector<AttributeDef> shared;
    for (const AttributeDef& attribute : target_table->def().attributes()) {
      bool everywhere = true;
      for (const Feed& feed : feeds) {
        everywhere = everywhere && feed.columns.count(attribute.name) > 0;
      }
      if (everywhere) shared.push_back(attribute);
    }
    if (shared.empty()) continue;

    // stats[a][f]: shared attribute a of feed f.
    std::vector<std::vector<AttributeStatistics>> stats(shared.size());
    for (size_t a = 0; a < shared.size(); ++a) {
      for (const Feed& feed : feeds) {
        EFES_ASSIGN_OR_RETURN(
            AttributeStatistics s,
            ProfileColumn(SampleOf(*feed.columns.at(shared[a].name),
                                   options.sample_limit),
                          shared[a].type));
        stats[a].push_back(std::move(s));
      }
    }

    size_t key_index = shared.size();
    double key_score = 0.0;
    double key_uniqueness = 0.0;
    double key_fill = 0.0;
    for (size_t a = 0; a < shared.size(); ++a) {
      double min_fill = 1.0;
      double min_uniqueness = 1.0;
      for (const AttributeStatistics& s : stats[a]) {
        min_fill = std::min(min_fill, s.fill_status.NonNullFraction());
        min_uniqueness = std::min(min_uniqueness, Uniqueness(s));
      }
      if (min_fill < options.min_key_fill) continue;
      if (min_uniqueness < options.min_key_uniqueness) continue;
      const double score = min_fill * min_uniqueness;
      if (key_index == shared.size() || score > key_score) {
        key_index = a;
        key_score = score;
        key_uniqueness = min_uniqueness;
        key_fill = min_fill;
      }
    }
    if (key_index == shared.size()) continue;
    const std::string& key_attribute = shared[key_index].name;

    double support_similarity = 1.0;
    double fit_sum = 0.0;
    size_t fit_count = 0;
    for (size_t a = 0; a < shared.size(); ++a) {
      if (a == key_index) continue;
      for (size_t x = 0; x < feeds.size(); ++x) {
        for (size_t y = x + 1; y < feeds.size(); ++y) {
          fit_sum += OverallFit(stats[a][x], stats[a][y]);
          ++fit_count;
        }
      }
    }
    if (fit_count > 0) {
      support_similarity = fit_sum / static_cast<double>(fit_count);
    }

    // One map over every feed's key cells, feed by feed.
    struct Block {
      size_t total = 0;
      size_t feeds_present = 0;
      size_t last_feed = 0;
    };
    std::unordered_map<std::string, Block> blocks;
    for (size_t f = 0; f < feeds.size(); ++f) {
      for (const Value& value : *feeds[f].columns.at(key_attribute)) {
        if (value.is_null()) continue;
        std::string key = ReferenceNormalizeEntityKey(
            value.type() == DataType::kText ? value.AsText()
                                            : value.ToString());
        if (key.empty()) continue;
        Block& block = blocks[std::move(key)];
        if (block.total == 0 || block.last_feed != f) {
          ++block.feeds_present;
          block.last_feed = f;
        }
        ++block.total;
      }
    }
    std::map<std::string, size_t> cross_feed;  // key order
    for (const auto& [key, block] : blocks) {
      if (block.feeds_present >= 2) cross_feed.emplace(key, block.total);
    }

    DuplicateClusterFinding finding;
    finding.target_relation = relation;
    finding.blocking_key = key_attribute;
    for (const Feed& feed : feeds) finding.feeds.push_back(feed.label);
    finding.key_uniqueness = key_uniqueness;
    finding.key_fill = key_fill;
    finding.support_similarity = support_similarity;
    for (const auto& [key, total] : cross_feed) {
      if (total > options.max_block_size) {
        ++finding.oversize_blocks;
        continue;
      }
      DuplicateCluster cluster;
      cluster.key = key;
      cluster.size = total;
      cluster.pair_count = total * (total - 1) / 2;
      finding.duplicate_records += total - 1;
      finding.verification_pairs += cluster.pair_count;
      finding.max_cluster_size = std::max(finding.max_cluster_size, total);
      finding.clusters.push_back(std::move(cluster));
    }
    finding.cluster_count = finding.clusters.size();
    if (finding.cluster_count == 0 ||
        support_similarity < options.min_support_similarity) {
      continue;
    }
    findings.push_back(std::move(finding));
  }
  return findings;
}

}  // namespace efes
