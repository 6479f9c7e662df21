// The mapping estimation module (Sections 3.3/3.4).
//
// "For each table in the target schema and each source database that
// provides data for that table, some connection has to be established to
// fetch the source data and write it into the target table. [...] every
// connection can be described in terms of certain metrics, such as the
// number of source tables to be queried, the number of attributes that
// must be copied, and whether new IDs for a primary key need to be
// generated" — the mapping complexity report of Table 2.

#ifndef EFES_MAPPING_MAPPING_MODULE_H_
#define EFES_MAPPING_MAPPING_MODULE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "efes/core/module.h"

namespace efes {

/// One connection: a (source database, target table) pair that must be
/// realized by the executable mapping.
struct MappingConnection {
  std::string source_database;
  std::string target_table;
  /// Source relations that must be queried, including intermediate
  /// relations needed to join the contributing ones.
  std::vector<std::string> source_tables;
  /// Number of attributes to copy (attribute correspondences).
  size_t attribute_count = 0;
  /// Whether fresh primary-key values must be generated because no source
  /// attribute feeds the target table's key.
  bool needs_key_generation = false;
  /// Target-side foreign keys that the mapping must establish.
  size_t foreign_key_count = 0;
  /// Provenance-node id of this connection (0 = no recorder active).
  uint64_t provenance = 0;
};

class MappingComplexityReport : public ComplexityReport {
 public:
  explicit MappingComplexityReport(std::vector<MappingConnection> connections)
      : connections_(std::move(connections)) {}

  const std::vector<MappingConnection>& connections() const {
    return connections_;
  }

  std::string module_name() const override { return "mapping"; }
  std::string ToText() const override;
  size_t ProblemCount() const override { return connections_.size(); }

 private:
  std::vector<MappingConnection> connections_;
};

/// Detector + planner for mapping effort. The planner emits one
/// `Write mapping` task per connection; the effort function of Example
/// 3.8 / Table 9 then prices tables, attributes, and key generation.
class MappingModule : public EstimationModule {
 public:
  std::string name() const override { return "mapping"; }

  Result<std::unique_ptr<ComplexityReport>> AssessComplexity(
      const IntegrationScenario& scenario,
      const RunContext& context) const override;

  Result<std::vector<Task>> PlanTasks(
      const ComplexityReport& report, ExpectedQuality quality,
      const ExecutionSettings& settings) const override;
};

}  // namespace efes

#endif  // EFES_MAPPING_MAPPING_MODULE_H_
