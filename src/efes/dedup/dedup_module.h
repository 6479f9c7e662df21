// The deduplication estimation module: a fourth EstimationModule that
// detects likely *cross-source duplicate entities* — the dominant cost of
// many real integrations, which the paper's module set (mapping,
// structure, values) never prices.
//
// The detector works from the existing §5.1 profiling statistics only:
//   1. For every target relation fed by two or more source feeds it
//      selects a blocking key among the shared corresponded attributes —
//      the best entity-identifying candidate by per-feed uniqueness and
//      fill (surrogate keys, i.e. target PK/FK attributes, are excluded:
//      their values are regenerated by the mapping, so collisions between
//      them are meaningless).
//   2. It blocks every feed's key column on the normalized key value;
//      blocks that collide across feeds become candidate duplicate
//      clusters. Oversized blocks (non-discriminative values such as
//      "unknown") are skipped, not resolved. Blocking is two flat pool
//      batches over all relations: row ranges are normalized into hash
//      partitions, then each (relation, partition) is grouped.
//   3. A cheap per-block plausibility check compares the feeds' value
//      statistics (histograms/patterns via OverallFit) over the shared
//      non-key attributes; relations whose feeds look statistically
//      unrelated produce no finding.
// The planner prices each finding as a "resolve duplicate clusters" task
// whose human-verification pair count feeds a configurable pair-review
// cost function (effort model / [dedup] config section), or as a
// low-effort "drop duplicate records" script.

#ifndef EFES_DEDUP_DEDUP_MODULE_H_
#define EFES_DEDUP_DEDUP_MODULE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "efes/core/module.h"
#include "efes/dedup/dedup_options.h"

namespace efes {

/// Canonical entity-key normalization used by the blocking pass:
/// ASCII-lowercases, trims outer whitespace, and collapses inner
/// whitespace runs to a single space — so "  Alpha  CORP " and
/// "alpha corp" land in the same block.
std::string NormalizeEntityKey(std::string_view text);

/// One candidate duplicate cluster: records from >= 2 feeds sharing a
/// normalized blocking-key value.
struct DuplicateCluster {
  std::string key;  // normalized blocking-key value
  size_t size = 0;  // records in the cluster, across all feeds
  /// Candidate pairs a human has to verify: size * (size - 1) / 2.
  size_t pair_count = 0;
};

/// All candidate clusters of one target relation — one finding per
/// relation with >= 2 feeds and at least one cross-feed key collision.
struct DuplicateClusterFinding {
  std::string target_relation;
  /// Target attribute whose corresponded source columns were blocked on.
  std::string blocking_key;
  /// Contributing feeds, "database:relation", in scenario order.
  std::vector<std::string> feeds;

  std::vector<DuplicateCluster> clusters;
  size_t cluster_count = 0;
  /// Records beyond the first of each cluster: what a resolution removes.
  size_t duplicate_records = 0;
  /// Sum of per-cluster pair counts — the human-verification workload.
  size_t verification_pairs = 0;
  size_t max_cluster_size = 0;
  /// Blocks whose size exceeded DedupOptions::max_block_size.
  size_t oversize_blocks = 0;

  /// Minimum per-feed uniqueness (distinct / non-null) of the key.
  double key_uniqueness = 0.0;
  /// Minimum per-feed fill fraction of the key.
  double key_fill = 0.0;
  /// Mean cross-feed statistics fit over the shared non-key attributes
  /// (1.0 when the key is the only shared attribute).
  double support_similarity = 1.0;

  /// Provenance-node id of this finding (0 = no recorder active).
  uint64_t provenance = 0;
};

class DedupComplexityReport : public ComplexityReport {
 public:
  explicit DedupComplexityReport(std::vector<DuplicateClusterFinding> findings)
      : findings_(std::move(findings)) {}

  const std::vector<DuplicateClusterFinding>& findings() const {
    return findings_;
  }

  std::string module_name() const override { return "dedup"; }
  /// Renders: duplicate cluster group | additional parameters.
  std::string ToText() const override;
  size_t ProblemCount() const override { return findings_.size(); }

 private:
  std::vector<DuplicateClusterFinding> findings_;
};

class DedupModule : public EstimationModule {
 public:
  DedupModule() = default;
  explicit DedupModule(DedupOptions options) : options_(options) {}

  std::string name() const override { return "dedup"; }

  const DedupOptions& options() const { return options_; }

  /// Fault point: `dedup.detect`. Invalid options are rejected here with
  /// kInvalidArgument (contained by the engine as a module failure).
  Result<std::unique_ptr<ComplexityReport>> AssessComplexity(
      const IntegrationScenario& scenario,
      const RunContext& context) const override;

  Result<std::vector<Task>> PlanTasks(
      const ComplexityReport& report, ExpectedQuality quality,
      const ExecutionSettings& settings) const override;

 private:
  DedupOptions options_;
};

}  // namespace efes

#endif  // EFES_DEDUP_DEDUP_MODULE_H_
