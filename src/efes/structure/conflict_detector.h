// The structure conflict detector (Section 4.1).
//
// Source and target schemas are converted into CSGs; each atomic target
// relationship is matched — via the correspondences and a graph search —
// to its most concise source relationship; comparing the inferred source
// cardinality with the prescribed target cardinality reveals structural
// conflicts, which are then counted against the actual source data
// (Table 3: "Constraint in target schema | Violation count in source
// data").

#ifndef EFES_STRUCTURE_CONFLICT_DETECTOR_H_
#define EFES_STRUCTURE_CONFLICT_DETECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "efes/core/integration_scenario.h"
#include "efes/csg/builder.h"
#include "efes/csg/path_search.h"

namespace efes {

/// The five structural conflict classes of Table 4.
enum class StructuralConflictKind {
  kNotNullViolated,          // tuple without a mandatory value
  kUniqueViolated,           // value in more than one tuple
  kMultipleAttributeValues,  // tuple with several values for one attribute
  kValueWithoutTuple,        // value not enclosed by any tuple
  kForeignKeyViolated,       // dangling reference
};

std::string_view StructuralConflictKindToString(StructuralConflictKind kind);

/// One detected conflict between a target constraint and the (conceptually
/// integrated) source data.
struct StructureConflict {
  std::string source_database;
  /// Directed relationship id within the *target* CSG graph.
  RelationshipId target_relationship = 0;
  /// E.g. "κ(records -> records.artist) = 1".
  std::string target_constraint;
  StructuralConflictKind kind = StructuralConflictKind::kNotNullViolated;
  /// True when elements carry *more* links than prescribed; false when
  /// they carry fewer.
  bool excess = false;
  Cardinality prescribed;
  /// Lemma-1 inference over the matched source relationship.
  Cardinality inferred;
  /// Human-readable matched source path.
  std::string source_path;
  /// Number of actually conflicting source data elements.
  size_t violation_count = 0;
  /// Provenance-node id of this conflict (0 = no recorder active).
  uint64_t provenance = 0;
};

/// All conflicts of one source database against the target.
struct SourceStructureAssessment {
  std::string source_database;
  std::vector<StructureConflict> conflicts;
};

/// Classifies a defective target relationship into a Table 4 row, from
/// the relationship's edge kind, its origin node kind, and the defect
/// side.
StructuralConflictKind ClassifyConflict(const CsgGraph& graph,
                                        const CsgRelationship& relationship,
                                        bool excess);

struct ConflictDetectorOptions {
  PathSearchOptions path_search;

  /// Detect violations of *composite* unique constraints (n-ary keys)
  /// whose attributes are all fed from one source relation, using the
  /// join operator's inverse cardinality (Lemma 3) for the inference and
  /// the source instance for the count. On by default: composite keys
  /// are ubiquitous in link tables.
  bool detect_composite_keys = true;

  /// Detect violations of target *functional dependencies* (X -> Y)
  /// whose attributes are all fed from one source relation: count the
  /// determinant groups carrying more than one dependent projection.
  /// Repaired like "multiple attribute values" (merge or keep-any).
  bool detect_functional_dependencies = true;

  /// Detect unique-constraint violations that only emerge when several
  /// contributions are combined — multiple sources, or a source plus
  /// pre-existing target data ("all sources might be free of duplicates,
  /// but there still might be target duplicates when they are combined",
  /// Section 3.1). The inference uses Lemma 2's overlapping union. Off by
  /// default to keep the Section 6 protocol (which treats sources
  /// independently); turn on for deployments that integrate into a
  /// populated target.
  bool detect_cross_source_conflicts = false;
};

/// Runs the detector for every source of the scenario. `target_graph_out`
/// (required) receives the target CSG the conflicts' relationship ids
/// refer to. With cross-source detection enabled, an extra assessment
/// named "(combined)" is appended when combination conflicts exist.
/// Sources are assessed in parallel, one task each; the assessments come
/// back in source order and do not depend on the thread count.
Result<std::vector<SourceStructureAssessment>> DetectStructureConflicts(
    const IntegrationScenario& scenario, CsgGraph* target_graph_out,
    const ConflictDetectorOptions& options = {});

}  // namespace efes

#endif  // EFES_STRUCTURE_CONFLICT_DETECTOR_H_
