// The estimation-module interface (Section 3.2, Figure 3).
//
// "EFES handles different kinds of integration challenges by accepting a
// dedicated estimation module to cope with each of them independently."
// A module contributes a data complexity detector (AssessComplexity) and
// a task planner (PlanTasks). The engine wires them together with the
// effort calculation functions.

#ifndef EFES_CORE_MODULE_H_
#define EFES_CORE_MODULE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "efes/common/result.h"
#include "efes/core/effort_model.h"
#include "efes/core/integration_scenario.h"
#include "efes/core/task.h"
#include "efes/profiling/sketch.h"

namespace efes {

class ProfileCache;
class ProfileMemo;
class ProvenanceRecorder;

/// The phase-1 state of one run, handed to every module's
/// AssessComplexity. Each run builds its own, so two runs in one process
/// (concurrent server requests, say) never see each other's cache,
/// profiling policy or recorder. Quality and execution settings are not
/// here: they belong to phase 2, which a phase-1 detector must not read.
struct RunContext {
  /// Profile cache consulted and filled by the run's profiling; null
  /// computes everything.
  ProfileCache* cache = nullptr;
  /// Memory budget and approximation mode of every profile the run
  /// computes (profiling/sketch.h); its chunk_rows is not read.
  ProfileOptions profile;
  /// Receives the run's provenance nodes; null records nothing.
  ProvenanceRecorder* recorder = nullptr;
  /// The profiles the run has computed so far (profiling/profiler.h),
  /// consulted before `cache`, so a column one module profiled is not
  /// profiled again by the next. Owned by the engine for one run; null
  /// shares nothing between modules.
  ProfileMemo* memo = nullptr;
};

/// Base class of all data complexity reports. "There is no formal
/// definition for such a report; rather, it can be tailored to the
/// specific, needed complexity indicators" — each module subclasses this
/// with its own indicators and supplies a textual rendering.
class ComplexityReport {
 public:
  virtual ~ComplexityReport() = default;

  /// Name of the producing module.
  virtual std::string module_name() const = 0;

  /// Rendered report (the paper's Tables 2, 3, 6).
  virtual std::string ToText() const = 0;

  /// A single scalar summarizing how many distinct problems the report
  /// contains (0 = nothing to do). Used by source-selection ranking.
  virtual size_t ProblemCount() const = 0;

  /// Provenance-node id of this report's assessment summary (0 when no
  /// recorder was active). Set by the producing module; the engine links
  /// it into the module-effort node and the assess trace span.
  uint64_t provenance_node() const { return provenance_node_; }
  void set_provenance_node(uint64_t id) { provenance_node_ = id; }

 private:
  uint64_t provenance_node_ = 0;
};

class EstimationModule {
 public:
  virtual ~EstimationModule() = default;

  virtual std::string name() const = 0;

  /// Phase 1 — complexity assessment: analyze schemas and instances and
  /// report objective integration problems. Independent of external
  /// parameters by design; `context` only says how to profile and where
  /// to record.
  virtual Result<std::unique_ptr<ComplexityReport>> AssessComplexity(
      const IntegrationScenario& scenario,
      const RunContext& context) const = 0;

  /// AssessComplexity with a RunContext built from the process default
  /// cache (ProfileCache::Active(), the only reader of that default),
  /// default profile options, no recorder and no memo.
  /// Its only caller is the benchmark probe (efesbench/probe/probe.cc);
  /// ROADMAP item 1 moves the probe onto the two-argument form and then
  /// deletes this. Derived classes do not re-export it.
  Result<std::unique_ptr<ComplexityReport>> AssessComplexity(
      const IntegrationScenario& scenario) const;

  /// Phase 2 — task planning: turn the module's own report into concrete
  /// tasks for the requested result quality. The report must have been
  /// produced by this module's AssessComplexity.
  virtual Result<std::vector<Task>> PlanTasks(
      const ComplexityReport& report, ExpectedQuality quality,
      const ExecutionSettings& settings) const = 0;
};

}  // namespace efes

#endif  // EFES_CORE_MODULE_H_
