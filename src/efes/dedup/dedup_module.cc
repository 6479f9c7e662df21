#include "efes/dedup/dedup_module.h"

#include <algorithm>
#include <array>
#include <functional>
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
#include "efes/telemetry/trace.h"

namespace efes {

namespace {

/// Appends the normalized form of `text` to `out` (NormalizeEntityKey).
/// Space and case are ASCII: nothing sets a locale, and in the C locale
/// isspace is exactly space and \t \n \v \f \r, and tolower maps only
/// A-Z.
void AppendNormalizedEntityKey(std::string_view text, std::string* out) {
  const size_t start = out->size();
  // A normalized key is never longer than its text.
  out->resize(start + text.size());
  char* const begin = out->data() + start;
  char* end = begin;
  bool pending_space = false;
  for (char c : text) {
    if (c == ' ' || (c >= '\t' && c <= '\r')) {
      // Collapse whitespace runs; drop them entirely at the start.
      if (end != begin) pending_space = true;
      continue;
    }
    if (pending_space) {
      *end++ = ' ';
      pending_space = false;
    }
    *end++ = c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
  }
  // Trailing whitespace never got flushed: trimmed.
  out->resize(static_cast<size_t>(end - out->data()));
}

}  // namespace

std::string NormalizeEntityKey(std::string_view text) {
  std::string normalized;
  AppendNormalizedEntityKey(text, &normalized);
  return normalized;
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

/// The blocking key and the support similarity pass 2 chose for one
/// relation.
struct KeyChoice {
  /// False when no shared attribute clears the key floors.
  bool keyed = false;
  size_t key_index = 0;
  double key_uniqueness = 0.0;
  double key_fill = 0.0;
  double support_similarity = 1.0;
};

// Blocking runs as two flat pool batches over fixed-size pieces, so one
// large relation spreads over every worker. Both sizes are constants:
// the findings do not depend on them, and the batch sizes must not
// depend on the thread count.

/// Rows of one feed's key column that one task normalizes.
constexpr size_t kBlockingUnitRows = 4096;
/// Hash partitions of the normalized keys; one task groups one
/// partition of one relation.
constexpr size_t kBlockingPartitions = 64;

/// One non-empty normalized key: its hash and its bytes in the arena of
/// the unit that holds it.
struct KeyCell {
  size_t hash = 0;
  size_t offset = 0;
  size_t length = 0;
};

/// A row range of one feed's key column and its normalized keys.
struct BlockingUnit {
  const std::vector<Value>* column = nullptr;
  size_t feed = 0;
  size_t begin = 0;
  size_t end = 0;
  /// The normalized keys of the range, back to back.
  std::string arena;
  /// The keys, grouped by partition: partition p holds
  /// cells[partition_begin[p], partition_begin[p + 1]), in row order.
  std::vector<KeyCell> cells;
  std::array<size_t, kBlockingPartitions + 1> partition_begin{};
};

size_t PartitionOf(const KeyCell& cell) {
  return cell.hash % kBlockingPartitions;
}

/// Normalizes every cell of `unit`'s range into its arena and sorts the
/// non-empty keys into partitions. Text cells are read in place; other
/// cells normalize their rendering.
void NormalizeUnit(BlockingUnit* unit) {
  std::vector<KeyCell> by_row;
  by_row.reserve(unit->end - unit->begin);
  std::array<size_t, kBlockingPartitions> counts{};
  for (size_t row = unit->begin; row < unit->end; ++row) {
    const Value& value = (*unit->column)[row];
    if (value.is_null()) continue;
    KeyCell cell;
    cell.offset = unit->arena.size();
    if (value.type() == DataType::kText) {
      AppendNormalizedEntityKey(value.AsText(), &unit->arena);
    } else {
      AppendNormalizedEntityKey(value.ToString(), &unit->arena);
    }
    cell.length = unit->arena.size() - cell.offset;
    if (cell.length == 0) continue;  // nothing left to block on
    cell.hash = std::hash<std::string_view>()(
        std::string_view(unit->arena).substr(cell.offset, cell.length));
    ++counts[PartitionOf(cell)];
    by_row.push_back(cell);
  }
  // A counting sort by partition; stable, so each partition keeps row
  // order.
  std::array<size_t, kBlockingPartitions> next{};
  for (size_t p = 0; p < kBlockingPartitions; ++p) {
    next[p] = unit->partition_begin[p];
    unit->partition_begin[p + 1] = unit->partition_begin[p] + counts[p];
  }
  unit->cells.resize(by_row.size());
  for (const KeyCell& cell : by_row) {
    unit->cells[next[PartitionOf(cell)]++] = cell;
  }
}

/// A normalized key seen in at least two feeds, with its record count
/// over all feeds.
struct CrossFeedBlock {
  std::string_view key;
  size_t total = 0;
};

/// A normalized key in a unit's arena, hashed once by NormalizeUnit.
struct HashedKey {
  std::string_view text;
  size_t hash = 0;
  bool operator==(const HashedKey& other) const { return text == other.text; }
};

struct HashedKeyHash {
  size_t operator()(const HashedKey& key) const { return key.hash; }
};

/// Groups partition `partition` of one relation's units, given in
/// (feed, row) order, into blocks, and returns the blocks seen in at
/// least two feeds, in no particular order.
std::vector<CrossFeedBlock> GroupPartition(const BlockingUnit* units,
                                           size_t unit_count,
                                           size_t partition) {
  struct Block {
    size_t total = 0;
    size_t feeds_present = 0;
    size_t last_feed = 0;
  };
  size_t cell_count = 0;
  for (size_t u = 0; u < unit_count; ++u) {
    cell_count += units[u].partition_begin[partition + 1] -
                  units[u].partition_begin[partition];
  }
  std::unordered_map<HashedKey, Block, HashedKeyHash> blocks;
  blocks.reserve(cell_count);
  for (size_t u = 0; u < unit_count; ++u) {
    const BlockingUnit& unit = units[u];
    const std::string_view arena(unit.arena);
    for (size_t c = unit.partition_begin[partition];
         c < unit.partition_begin[partition + 1]; ++c) {
      const KeyCell& cell = unit.cells[c];
      Block& block =
          blocks[HashedKey{arena.substr(cell.offset, cell.length), cell.hash}];
      // Units arrive in feed order, so this counts each feed once.
      if (block.total == 0 || block.last_feed != unit.feed) {
        ++block.feeds_present;
        block.last_feed = unit.feed;
      }
      ++block.total;
    }
  }
  std::vector<CrossFeedBlock> cross_feed;
  for (const auto& [key, block] : blocks) {
    if (block.feeds_present >= 2) {
      cross_feed.push_back(CrossFeedBlock{key.text, block.total});
    }
  }
  return cross_feed;
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
  // Every such column is also a values source, so within an engine run
  // the run's memo already holds its profile unless the two sample
  // limits differ.
  std::vector<ProfileRequest> requests;
  ProfileMemo call_local;
  ProfileMemo& memo = context.memo != nullptr ? *context.memo : call_local;
  for (RelationWork& work : items) {
    work.first_stat = requests.size();
    for (const AttributeDef& attribute : work.shared_attributes) {
      for (const Feed& feed : work.feeds) {
        requests.push_back(ProfileRequest{
            memo.Sample(*feed.columns.at(attribute.name),
                        options_.sample_limit),
            attribute.type});
      }
    }
  }
  EFES_ASSIGN_OR_RETURN(
      std::vector<AttributeStatistics> stats,
      ProfileColumns(requests, context.profile, context.cache, &memo));

  // Pass 2 (parallel): per target relation, select the blocking key and
  // check the cross-feed support similarity. Both read only the batch's
  // statistics.
  std::vector<KeyChoice> choices(items.size());
  EFES_RETURN_IF_ERROR(
      ParallelFor(items.size(), [&](size_t index) -> Status {
        const RelationWork& work = items[index];
        KeyChoice& choice = choices[index];
        const size_t feed_count = work.feeds.size();
        // The statistics of shared attribute `ai` in feed `fi`.
        auto feed_stats = [&](size_t ai, size_t fi) -> const auto& {
          return stats[work.first_stat + ai * feed_count + fi];
        };

        // Blocking-key selection: the shared attribute that looks most
        // entity-identifying in *every* feed — score = worst-feed
        // uniqueness x worst-feed fill, gated by the configured floors.
        double key_score = 0.0;
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
          if (!choice.keyed || score > key_score) {
            choice.keyed = true;
            choice.key_index = ai;
            choice.key_uniqueness = min_uniqueness;
            choice.key_fill = min_fill;
            key_score = score;
          }
        }
        if (!choice.keyed) return Status::OK();

        // Support similarity: mean pairwise statistics fit over the
        // *other* shared attributes. Feeds that merely reuse a key word
        // but describe unrelated entities fail this gate.
        double fit_sum = 0.0;
        size_t fit_count = 0;
        for (size_t ai = 0; ai < work.shared_attributes.size(); ++ai) {
          if (ai == choice.key_index) continue;
          for (size_t a = 0; a < feed_count; ++a) {
            for (size_t b = a + 1; b < feed_count; ++b) {
              fit_sum += OverallFit(feed_stats(ai, a), feed_stats(ai, b));
              ++fit_count;
            }
          }
        }
        if (fit_count > 0) {
          choice.support_similarity = fit_sum / static_cast<double>(fit_count);
        }
        return Status::OK();
      }));

  // Blocking, over every row: sampling only applies to the statistics
  // above. A relation whose support similarity fails the gate yields no
  // finding whatever its clusters, so only the others are blocked. Their
  // key columns are cut into units of kBlockingUnitRows rows, in
  // (relation, feed, row) order.
  std::vector<size_t> blocked;  // relation indices, ascending
  std::vector<BlockingUnit> units;
  std::vector<size_t> first_unit;  // per blocked relation, plus an end
  for (size_t index = 0; index < items.size(); ++index) {
    const KeyChoice& choice = choices[index];
    if (!choice.keyed ||
        choice.support_similarity < options_.min_support_similarity) {
      continue;
    }
    const RelationWork& work = items[index];
    const std::string& key_attribute =
        work.shared_attributes[choice.key_index].name;
    blocked.push_back(index);
    first_unit.push_back(units.size());
    for (size_t fi = 0; fi < work.feeds.size(); ++fi) {
      const std::vector<Value>* column = work.feeds[fi].columns.at(key_attribute);
      for (size_t begin = 0; begin < column->size();
           begin += kBlockingUnitRows) {
        BlockingUnit unit;
        unit.column = column;
        unit.feed = fi;
        unit.begin = begin;
        unit.end = std::min(begin + kBlockingUnitRows, column->size());
        units.push_back(std::move(unit));
      }
    }
  }
  first_unit.push_back(units.size());

  // Step 1: normalize every unit into hash partitions.
  {
    TraceSpan span("dedup.normalize");
    EFES_RETURN_IF_ERROR(ParallelFor(units.size(), [&](size_t u) -> Status {
      NormalizeUnit(&units[u]);
      return Status::OK();
    }));
  }
  // Step 2: group each (relation, partition). A key lands in exactly one
  // partition, and its total and feed count depend only on the multiset
  // of its (key, feed) cells, so the blocks are those one map over the
  // whole relation would hold.
  std::vector<std::vector<CrossFeedBlock>> partitions(blocked.size() *
                                                      kBlockingPartitions);
  {
    TraceSpan span("dedup.group");
    EFES_RETURN_IF_ERROR(
        ParallelFor(partitions.size(), [&](size_t slot) -> Status {
          const size_t b = slot / kBlockingPartitions;
          partitions[slot] =
              GroupPartition(&units[first_unit[b]],
                             first_unit[b + 1] - first_unit[b],
                             slot % kBlockingPartitions);
          return Status::OK();
        }));
  }

  // Pass 3 (sequential): per blocked relation, in relation order, turn
  // the cross-feed blocks into clusters and record the finding, so ids
  // and report stay canonical for any thread count.
  std::vector<DuplicateClusterFinding> findings;
  for (size_t b = 0; b < blocked.size(); ++b) {
    const RelationWork& work = items[blocked[b]];
    const KeyChoice& choice = choices[blocked[b]];
    const std::string& key_attribute =
        work.shared_attributes[choice.key_index].name;
    // Sorting by key gives the canonical cluster order.
    std::vector<CrossFeedBlock> cross_feed;
    for (size_t p = 0; p < kBlockingPartitions; ++p) {
      const std::vector<CrossFeedBlock>& part =
          partitions[b * kBlockingPartitions + p];
      cross_feed.insert(cross_feed.end(), part.begin(), part.end());
    }
    std::sort(cross_feed.begin(), cross_feed.end(),
              [](const CrossFeedBlock& x, const CrossFeedBlock& y) {
                return x.key < y.key;
              });

    DuplicateClusterFinding finding;
    finding.target_relation = work.target_relation;
    finding.blocking_key = key_attribute;
    for (const Feed& feed : work.feeds) {
      finding.feeds.push_back(feed.label);
    }
    finding.key_uniqueness = choice.key_uniqueness;
    finding.key_fill = choice.key_fill;
    finding.support_similarity = choice.support_similarity;
    for (const CrossFeedBlock& block : cross_feed) {
      if (block.total > options_.max_block_size) {
        // Non-discriminative key value ("unknown", "n/a"): resolving
        // it is hopeless, report it skipped instead of pricing a
        // quadratic pair review.
        ++finding.oversize_blocks;
        continue;
      }
      DuplicateCluster cluster;
      cluster.key = std::string(block.key);
      cluster.size = block.total;
      cluster.pair_count = block.total * (block.total - 1) / 2;
      finding.duplicate_records += block.total - 1;
      finding.verification_pairs += cluster.pair_count;
      finding.max_cluster_size =
          std::max(finding.max_cluster_size, block.total);
      finding.clusters.push_back(std::move(cluster));
    }
    finding.cluster_count = finding.clusters.size();
    if (finding.cluster_count == 0) continue;

    if (prov != nullptr) {
      const std::string& subject = finding.target_relation;
      const uint64_t uniq_node = prov->RecordValue(
          ProvenanceKind::kStatistic, "statistic key.uniqueness",
          subject + "." + key_attribute, finding.key_uniqueness);
      const uint64_t fill_stat_node = prov->RecordValue(
          ProvenanceKind::kStatistic, "statistic key.fill",
          subject + "." + key_attribute, finding.key_fill);
      const uint64_t fit_node = prov->RecordValue(
          ProvenanceKind::kStatistic, "statistic support.similarity",
          subject, finding.support_similarity);
      const uint64_t clusters_node = prov->RecordValue(
          ProvenanceKind::kStatistic, "statistic cluster.count", subject,
          static_cast<double>(finding.cluster_count));
      const uint64_t pairs_node = prov->RecordValue(
          ProvenanceKind::kStatistic, "statistic verification.pairs",
          subject, static_cast<double>(finding.verification_pairs));
      finding.provenance = prov->Record(
          ProvenanceKind::kFinding,
          "duplicate clusters: " + subject + " via " + key_attribute, subject,
          {fill_node, uniqueness_node, similarity_node, block_size_node,
           uniq_node, fill_stat_node, fit_node, clusters_node, pairs_node});
    }
    findings.push_back(std::move(finding));
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
