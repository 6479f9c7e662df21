#include "efes/provenance/provenance.h"

#include <utility>

#include "efes/common/fault.h"

namespace efes {

namespace {

void DropZeroIds(std::vector<uint64_t>* ids) {
  std::erase(*ids, static_cast<uint64_t>(0));
}

}  // namespace

std::string_view ProvenanceKindToString(ProvenanceKind kind) {
  switch (kind) {
    case ProvenanceKind::kStatistic:
      return "statistic";
    case ProvenanceKind::kConstraint:
      return "constraint";
    case ProvenanceKind::kCorrespondence:
      return "correspondence";
    case ProvenanceKind::kThreshold:
      return "threshold";
    case ProvenanceKind::kParameter:
      return "parameter";
    case ProvenanceKind::kFinding:
      return "finding";
    case ProvenanceKind::kTask:
      return "task";
    case ProvenanceKind::kTaskEffort:
      return "task_effort";
    case ProvenanceKind::kModuleEffort:
      return "module_effort";
    case ProvenanceKind::kTotalEffort:
      return "total_effort";
  }
  return "unknown";
}

uint64_t ProvenanceRecorder::RecordLocked(ProvenanceNode node) {
  if (degraded_) return 0;
  if (!CheckFaultPoint("provenance.record").ok()) {
    // Degrade, don't fail: the run proceeds and renderers report a
    // degraded (absent) explain section instead of an error.
    degraded_ = true;
    return 0;
  }
  DropZeroIds(&node.inputs);
  node.id = nodes_.size() + 1;
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

uint64_t ProvenanceRecorder::Record(ProvenanceKind kind, std::string label,
                                    std::string subject,
                                    std::vector<uint64_t> inputs) {
  ProvenanceNode node;
  node.kind = kind;
  node.label = std::move(label);
  node.subject = std::move(subject);
  node.inputs = std::move(inputs);
  std::lock_guard<std::mutex> lock(mutex_);
  return RecordLocked(std::move(node));
}

uint64_t ProvenanceRecorder::RecordValue(ProvenanceKind kind,
                                         std::string label,
                                         std::string subject, double value,
                                         std::vector<uint64_t> inputs) {
  ProvenanceNode node;
  node.kind = kind;
  node.label = std::move(label);
  node.subject = std::move(subject);
  node.has_value = true;
  node.value = value;
  node.inputs = std::move(inputs);
  std::lock_guard<std::mutex> lock(mutex_);
  return RecordLocked(std::move(node));
}

void ProvenanceRecorder::SetRef(uint64_t id, std::string ref) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (id > nodes_.size()) return;
  nodes_[id - 1].ref = std::move(ref);
}

bool ProvenanceRecorder::degraded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return degraded_;
}

ProvenanceSnapshot ProvenanceRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ProvenanceSnapshot snapshot;
  snapshot.nodes = nodes_;
  snapshot.degraded = degraded_;
  return snapshot;
}

}  // namespace efes
