#include "efes/dedup/dedup_module.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "efes/common/fault.h"
#include "efes/common/parallel.h"
#include "efes/common/string_util.h"
#include "efes/common/text_table.h"
#include "efes/profiling/profiler.h"
#include "efes/profiling/statistics.h"
#include "efes/provenance/provenance.h"

namespace efes {

std::string NormalizeEntityKey(std::string_view text) {
  std::string normalized;
  normalized.reserve(text.size());
  bool pending_space = false;
  for (char c : text) {
    unsigned char uc = static_cast<unsigned char>(c);
    if (std::isspace(uc)) {
      // Collapse whitespace runs; drop them entirely at the start.
      if (!normalized.empty()) pending_space = true;
      continue;
    }
    if (pending_space) {
      normalized.push_back(' ');
      pending_space = false;
    }
    normalized.push_back(
        static_cast<char>(std::tolower(uc)));
  }
  return normalized;  // trailing whitespace never got flushed: trimmed
}

std::string DedupComplexityReport::ToText() const {
  if (findings_.empty()) {
    return "(no duplicate cluster groups)\n";
  }
  TextTable table;
  table.SetHeader({"Duplicate cluster group", "Additional parameters"});
  for (const DuplicateClusterFinding& f : findings_) {
    std::ostringstream name;
    name << f.target_relation << " (blocking key " << f.blocking_key << ", "
         << f.feeds.size() << " feeds)";
    std::ostringstream params;
    params << f.cluster_count << " clusters, " << f.duplicate_records
           << " duplicate records, " << f.verification_pairs
           << " pairs to verify, max cluster " << f.max_cluster_size
           << ", support fit " << FormatDouble(f.support_similarity, 3);
    if (f.oversize_blocks > 0) {
      params << ", " << f.oversize_blocks << " oversize blocks skipped";
    }
    table.AddRow({name.str(), params.str()});
  }
  return table.ToString();
}

namespace {

/// One source relation contributing to a target relation.
struct Feed {
  std::string label;  // "database:relation"
  /// Target attribute -> the feed's corresponded source column.
  std::map<std::string, const std::vector<Value>*> columns;
};

/// All feeds of one target relation, plus the shared candidate attributes.
struct RelationWork {
  std::string target_relation;
  std::vector<Feed> feeds;
  /// Target attributes corresponded by *every* feed, excluding target
  /// PK/FK attributes, in target-schema attribute order.
  std::vector<AttributeDef> shared_attributes;
  /// Index of the relation's first statistics in the assessment's batch;
  /// shared attribute `a` of feed `f` sits at
  /// first_stat + a * feeds.size() + f.
  size_t first_stat = 0;
};

double Uniqueness(const AttributeStatistics& stats) {
  if (stats.constancy.non_null_count == 0) return 0.0;
  return static_cast<double>(stats.constancy.distinct_count) /
         static_cast<double>(stats.constancy.non_null_count);
}

}  // namespace

Result<std::unique_ptr<ComplexityReport>> DedupModule::AssessComplexity(
    const IntegrationScenario& scenario, const RunContext& context) const {
  EFES_RETURN_IF_ERROR(CheckFaultPoint("dedup.detect"));
  EFES_RETURN_IF_ERROR(options_.Validate());

  // Target PK and FK attributes never serve as blocking keys: their
  // values are surrogate identifiers the mapping regenerates per source,
  // so collisions between sources are meaningless, not duplicates.
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

  // Pass 1 (sequential): group the attribute-level correspondences by
  // target relation into feeds, preserving scenario order, and intersect
  // each relation's feeds down to the shared candidate attributes.
  std::map<std::string, std::vector<Feed>> feeds_by_relation;
  for (const SourceBinding& source : scenario.sources) {
    // Feed key: source relation name -> feed under construction. One feed
    // per (source database, source relation) pair.
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
      // Validate the target side up front, like the other detectors.
      EFES_ASSIGN_OR_RETURN(const Table* target_table,
                            scenario.target.table(corr.target_relation));
      EFES_RETURN_IF_ERROR(
          target_table->def().Attribute(corr.target_attribute).status());

      std::vector<Feed>& feeds = feeds_by_relation[corr.target_relation];
      const std::string feed_key =
          source.database.name() + ":" + corr.source_relation;
      auto [it, inserted] =
          feed_index.emplace(feed_key + "\n" + corr.target_relation, 0);
      if (inserted) {
        it->second = feeds.size();
        Feed feed;
        feed.label = feed_key;
        feeds.push_back(std::move(feed));
      }
      feeds[it->second].columns[corr.target_attribute] = source_column;
    }
  }

  std::vector<RelationWork> items;
  for (auto& [relation, feeds] : feeds_by_relation) {
    if (feeds.size() < 2) continue;  // duplicates need >= 2 feeds
    EFES_ASSIGN_OR_RETURN(const Table* target_table,
                          scenario.target.table(relation));
    RelationWork work;
    work.target_relation = relation;
    // Shared attributes in target-schema attribute order — the canonical
    // tie-break order for blocking-key selection.
    for (const AttributeDef& attribute : target_table->def().attributes()) {
      bool everywhere = true;
      for (const Feed& feed : feeds) {
        if (feed.columns.count(attribute.name) == 0) {
          everywhere = false;
          break;
        }
      }
      if (everywhere) work.shared_attributes.push_back(attribute);
    }
    if (work.shared_attributes.empty()) continue;
    work.feeds = std::move(feeds);
    items.push_back(std::move(work));
  }

  // Provenance: thresholds once, up front, on the sequential path.
  ProvenanceRecorder* prov = context.recorder;
  uint64_t fill_node = 0;
  uint64_t uniqueness_node = 0;
  uint64_t similarity_node = 0;
  uint64_t block_size_node = 0;
  if (prov != nullptr) {
    fill_node = prov->RecordValue(ProvenanceKind::kThreshold,
                                  "threshold min_key_fill", "",
                                  options_.min_key_fill);
    uniqueness_node = prov->RecordValue(ProvenanceKind::kThreshold,
                                        "threshold min_key_uniqueness", "",
                                        options_.min_key_uniqueness);
    similarity_node = prov->RecordValue(
        ProvenanceKind::kThreshold, "threshold min_support_similarity", "",
        options_.min_support_similarity);
    block_size_node = prov->RecordValue(
        ProvenanceKind::kThreshold, "threshold max_block_size", "",
        static_cast<double>(options_.max_block_size));
  }

  // One batch profiles every (relation x shared attribute x feed) column
  // against the target attribute's datatype, in that order, so a large
  // relation's columns spread over every worker. The statistics may come
  // from a sample; blocking below always scans every row. As in the
  // value module, the batch runs after the thresholds are recorded.
  std::vector<ProfileRequest> requests;
  std::map<const std::vector<Value>*, std::vector<Value>> samples;
  for (RelationWork& work : items) {
    work.first_stat = requests.size();
    for (const AttributeDef& attribute : work.shared_attributes) {
      for (const Feed& feed : work.feeds) {
        requests.push_back(ProfileRequest{
            SampleColumn(*feed.columns.at(attribute.name),
                         options_.sample_limit, &samples),
            attribute.type});
      }
    }
  }
  EFES_ASSIGN_OR_RETURN(
      std::vector<AttributeStatistics> stats,
      ProfileColumns(requests, context.profile, context.cache));

  // Pass 2 (parallel): per target relation — select the blocking key,
  // block on the normalized key, and check the cross-feed support
  // similarity. Provenance is buffered into fragments.
  struct ItemResult {
    bool has_finding = false;
    DuplicateClusterFinding finding;
    ProvenanceFragment fragment;
    size_t finding_local = 0;
  };
  std::vector<ItemResult> results(items.size());
  EFES_RETURN_IF_ERROR(
      ParallelFor(items.size(), [&](size_t index) -> Status {
        const RelationWork& work = items[index];
        ItemResult& computed = results[index];
        const size_t feed_count = work.feeds.size();
        // The statistics of shared attribute `ai` in feed `fi`.
        auto feed_stats = [&](size_t ai, size_t fi) -> const auto& {
          return stats[work.first_stat + ai * feed_count + fi];
        };

        // Blocking-key selection: the shared attribute that looks most
        // entity-identifying in *every* feed — score = worst-feed
        // uniqueness x worst-feed fill, gated by the configured floors.
        size_t key_index = work.shared_attributes.size();
        double key_score = 0.0;
        double key_uniqueness = 0.0;
        double key_fill = 0.0;
        for (size_t ai = 0; ai < work.shared_attributes.size(); ++ai) {
          double min_fill = 1.0;
          double min_uniqueness = 1.0;
          for (size_t fi = 0; fi < feed_count; ++fi) {
            const AttributeStatistics& s = feed_stats(ai, fi);
            min_fill = std::min(min_fill, s.fill_status.NonNullFraction());
            min_uniqueness = std::min(min_uniqueness, Uniqueness(s));
          }
          if (min_fill < options_.min_key_fill) continue;
          if (min_uniqueness < options_.min_key_uniqueness) continue;
          double score = min_fill * min_uniqueness;
          // Strictly-greater keeps the first (target-schema-order)
          // attribute on ties — canonical for any thread count.
          if (key_index == work.shared_attributes.size() ||
              score > key_score) {
            key_index = ai;
            key_score = score;
            key_uniqueness = min_uniqueness;
            key_fill = min_fill;
          }
        }
        if (key_index == work.shared_attributes.size()) {
          return Status::OK();
        }
        const std::string& key_attribute =
            work.shared_attributes[key_index].name;

        // Support similarity: mean pairwise statistics fit over the
        // *other* shared attributes. Feeds that merely reuse a key word
        // but describe unrelated entities fail this gate.
        double support_similarity = 1.0;
        {
          double fit_sum = 0.0;
          size_t fit_count = 0;
          for (size_t ai = 0; ai < work.shared_attributes.size(); ++ai) {
            if (ai == key_index) continue;
            for (size_t a = 0; a < feed_count; ++a) {
              for (size_t b = a + 1; b < feed_count; ++b) {
                fit_sum += OverallFit(feed_stats(ai, a), feed_stats(ai, b));
                ++fit_count;
              }
            }
          }
          if (fit_count > 0) {
            support_similarity = fit_sum / static_cast<double>(fit_count);
          }
        }

        // Blocking: normalized key value -> per-feed record counts. The
        // blocking pass always scans every row — sampling only applies to
        // the statistics above.
        struct Block {
          size_t total = 0;
          size_t feeds_present = 0;
          size_t last_feed = 0;
        };
        size_t key_cells = 0;
        for (const Feed& feed : work.feeds) {
          key_cells += feed.columns.at(key_attribute)->size();
        }
        std::unordered_map<std::string, Block> blocks;
        blocks.reserve(key_cells);
        for (size_t fi = 0; fi < feed_count; ++fi) {
          for (const Value& value : *work.feeds[fi].columns.at(key_attribute)) {
            if (value.is_null()) continue;
            std::string key = value.type() == DataType::kText
                                  ? NormalizeEntityKey(value.AsText())
                                  : NormalizeEntityKey(value.ToString());
            if (key.empty()) continue;
            Block& block = blocks[std::move(key)];
            if (block.total == 0 || block.last_feed != fi) {
              ++block.feeds_present;
              block.last_feed = fi;
            }
            ++block.total;
          }
        }
        // Only blocks seen in >= 2 feeds can become clusters; sorting just
        // those by key gives the canonical cluster order.
        std::vector<const std::pair<const std::string, Block>*> cross_feed;
        for (const auto& entry : blocks) {
          if (entry.second.feeds_present >= 2) cross_feed.push_back(&entry);
        }
        std::sort(cross_feed.begin(), cross_feed.end(),
                  [](const auto* a, const auto* b) {
                    return a->first < b->first;
                  });

        DuplicateClusterFinding finding;
        finding.target_relation = work.target_relation;
        finding.blocking_key = key_attribute;
        for (const Feed& feed : work.feeds) {
          finding.feeds.push_back(feed.label);
        }
        finding.key_uniqueness = key_uniqueness;
        finding.key_fill = key_fill;
        finding.support_similarity = support_similarity;
        for (const auto* entry : cross_feed) {
          const auto& [key, block] = *entry;
          if (block.total > options_.max_block_size) {
            // Non-discriminative key value ("unknown", "n/a"): resolving
            // it is hopeless, report it skipped instead of pricing a
            // quadratic pair review.
            ++finding.oversize_blocks;
            continue;
          }
          DuplicateCluster cluster;
          cluster.key = key;
          cluster.size = block.total;
          cluster.pair_count = block.total * (block.total - 1) / 2;
          finding.duplicate_records += block.total - 1;
          finding.verification_pairs += cluster.pair_count;
          finding.max_cluster_size =
              std::max(finding.max_cluster_size, block.total);
          finding.clusters.push_back(std::move(cluster));
        }
        finding.cluster_count = finding.clusters.size();
        if (finding.cluster_count == 0 ||
            support_similarity < options_.min_support_similarity) {
          return Status::OK();
        }

        if (prov != nullptr) {
          ProvenanceFragment& frag = computed.fragment;
          const std::string& subject = finding.target_relation;
          size_t uniq_local = frag.AddValue(
              ProvenanceKind::kStatistic, "statistic key.uniqueness",
              subject + "." + key_attribute, finding.key_uniqueness);
          size_t fill_local = frag.AddValue(
              ProvenanceKind::kStatistic, "statistic key.fill",
              subject + "." + key_attribute, finding.key_fill);
          size_t fit_local = frag.AddValue(
              ProvenanceKind::kStatistic, "statistic support.similarity",
              subject, finding.support_similarity);
          size_t clusters_local = frag.AddValue(
              ProvenanceKind::kStatistic, "statistic cluster.count", subject,
              static_cast<double>(finding.cluster_count));
          size_t pairs_local = frag.AddValue(
              ProvenanceKind::kStatistic, "statistic verification.pairs",
              subject, static_cast<double>(finding.verification_pairs));
          computed.finding_local = frag.Add(
              ProvenanceKind::kFinding,
              "duplicate clusters: " + subject + " via " + key_attribute,
              subject,
              {fill_node, uniqueness_node, similarity_node, block_size_node},
              {uniq_local, fill_local, fit_local, clusters_local,
               pairs_local});
        }
        computed.has_finding = true;
        computed.finding = std::move(finding);
        return Status::OK();
      }));

  // Pass 3 (sequential): absorb fragments and assemble findings in
  // relation order — ids and report stay canonical for any thread count.
  std::vector<DuplicateClusterFinding> findings;
  for (ItemResult& result : results) {
    if (!result.has_finding) continue;
    if (prov != nullptr) {
      std::vector<uint64_t> global_ids = prov->Absorb(result.fragment);
      if (result.finding_local < global_ids.size()) {
        result.finding.provenance = global_ids[result.finding_local];
      }
    }
    findings.push_back(std::move(result.finding));
  }

  auto report = std::make_unique<DedupComplexityReport>(std::move(findings));
  if (prov != nullptr) {
    std::vector<uint64_t> finding_nodes;
    for (const DuplicateClusterFinding& f : report->findings()) {
      finding_nodes.push_back(f.provenance);
    }
    report->set_provenance_node(prov->RecordValue(
        ProvenanceKind::kFinding, "dedup assessment", "",
        static_cast<double>(report->findings().size()),
        std::move(finding_nodes)));
  }
  return std::unique_ptr<ComplexityReport>(std::move(report));
}

Result<std::vector<Task>> DedupModule::PlanTasks(
    const ComplexityReport& report, ExpectedQuality quality,
    const ExecutionSettings& settings) const {
  (void)settings;
  const auto* dedup_report =
      dynamic_cast<const DedupComplexityReport*>(&report);
  if (dedup_report == nullptr) {
    return Status::InvalidArgument(
        "DedupModule received a foreign complexity report");
  }

  bool high = quality == ExpectedQuality::kHighQuality;
  std::vector<Task> tasks;
  for (const DuplicateClusterFinding& f : dedup_report->findings()) {
    Task task;
    task.category = TaskCategory::kDeduplication;
    task.quality = quality;
    task.subject = f.target_relation + " via " + f.blocking_key;
    if (high) {
      // Full resolution: review every within-cluster candidate pair, then
      // merge each confirmed cluster into one golden record.
      task.type = TaskType::kResolveDuplicateClusters;
      task.parameters[task_params::kClusters] =
          static_cast<double>(f.cluster_count);
      task.parameters[task_params::kPairs] =
          static_cast<double>(f.verification_pairs);
      task.parameters[task_params::kValues] =
          static_cast<double>(f.duplicate_records);
    } else {
      // Low effort: one keep-one-drop-rest script per affected relation.
      task.type = TaskType::kDropDuplicateRecords;
      task.parameters[task_params::kClusters] =
          static_cast<double>(f.cluster_count);
      task.parameters[task_params::kValues] =
          static_cast<double>(f.duplicate_records);
    }
    if (f.provenance != 0) task.provenance.push_back(f.provenance);
    tasks.push_back(std::move(task));
  }
  return tasks;
}

}  // namespace efes
