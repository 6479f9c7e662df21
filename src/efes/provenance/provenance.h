// Estimate provenance: a typed DAG that links every number the engine
// reports — planned tasks, per-module effort, the total — back to the
// inputs that produced it: §5.1 statistic values with their source and
// column ids, discovered constraints, correspondence confidences,
// decision thresholds (e.g. the 0.9 fit cutoff), and effort-model
// parameters.
//
// Recording is off by default: a ProvenanceRecorder observes exactly the
// runs it is passed to (RunOptions::recorder, handed to each module in
// its RunContext), so clean runs stay byte-identical to an
// uninstrumented build. Pipeline code treats a null recorder (or a
// returned id of 0) as "not recording".
//
// Determinism contract: node ids are assigned in recording order, and all
// recording happens on the sequential pipeline path — a module that
// fans work out over the pool records each item's nodes afterwards, in
// item order. The resulting DAG (and therefore `--explain` output) is
// bit-identical for any --threads=N and for cold/warm/uncached cache
// states.

#ifndef EFES_PROVENANCE_PROVENANCE_H_
#define EFES_PROVENANCE_PROVENANCE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "efes/common/thread_annotations.h"

namespace efes {

/// Node taxonomy, from raw evidence to priced outputs (DESIGN.md §12).
enum class ProvenanceKind {
  kStatistic,       // a §5.1 statistic value (fill fraction, distinct count)
  kConstraint,      // a prescribed target constraint or inferred cardinality
  kCorrespondence,  // a schema correspondence with its matcher score
  kThreshold,       // a decision threshold, e.g. the 0.9 fit cutoff
  kParameter,       // an effort-model or task parameter value
  kFinding,         // a detector finding (connection, conflict, heterogeneity)
  kTask,            // a planned task
  kTaskEffort,      // one effort-function evaluation (minutes for one task)
  kModuleEffort,    // a per-module effort subtotal
  kTotalEffort,     // the estimate's bottom line
};

std::string_view ProvenanceKindToString(ProvenanceKind kind);

/// One vertex of the provenance DAG. `inputs` point at the nodes this one
/// was derived from; leaves (statistics, thresholds, parameters) have none.
struct ProvenanceNode {
  /// 1-based recording-order id; 0 is the reserved "no node" sentinel.
  uint64_t id = 0;
  ProvenanceKind kind = ProvenanceKind::kStatistic;
  /// What the node is, e.g. "statistic source.non_null_fraction".
  std::string label;
  /// What it is about, e.g. "freedb:songs.length -> tracks.duration".
  std::string subject;
  /// Short stable handle for CLI lookup (`--explain=t3`); tasks only.
  std::string ref;
  bool has_value = false;
  double value = 0.0;
  std::vector<uint64_t> inputs;
};

/// Point-in-time copy of a recorder's DAG, as handed to the renderers.
struct ProvenanceSnapshot {
  std::vector<ProvenanceNode> nodes;
  /// True when recording hit the `provenance.record` fault point: the DAG
  /// is incomplete and renderers must degrade instead of explaining.
  bool degraded = false;
};

/// Collects the provenance DAG for one estimation run. Thread-safe, but
/// record only from the run's own thread: Record() calls from pool
/// workers would make ids scheduling-dependent.
class ProvenanceRecorder {
 public:
  ProvenanceRecorder() = default;
  ProvenanceRecorder(const ProvenanceRecorder&) = delete;
  ProvenanceRecorder& operator=(const ProvenanceRecorder&) = delete;

  /// Records one node and returns its id, or 0 when recording has
  /// degraded (the `provenance.record` fault point fired). Input ids of 0
  /// are dropped, so callers can pass through unset handles freely.
  uint64_t Record(ProvenanceKind kind, std::string label, std::string subject,
                  std::vector<uint64_t> inputs = {});
  uint64_t RecordValue(ProvenanceKind kind, std::string label,
                       std::string subject, double value,
                       std::vector<uint64_t> inputs = {});

  /// Attaches a lookup handle (e.g. "t3") to an already-recorded node.
  void SetRef(uint64_t id, std::string ref);

  bool degraded() const;
  ProvenanceSnapshot Snapshot() const;

 private:
  uint64_t RecordLocked(ProvenanceNode node);

  mutable std::mutex mutex_;
  std::vector<ProvenanceNode> nodes_ EFES_GUARDED_BY(mutex_);
  bool degraded_ EFES_GUARDED_BY(mutex_) = false;
};

}  // namespace efes

#endif  // EFES_PROVENANCE_PROVENANCE_H_
