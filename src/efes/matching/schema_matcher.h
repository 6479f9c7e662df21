// A schema matcher that bootstraps correspondences when none are given.
//
// The paper assumes correspondences as input ("they can be automatically
// discovered with schema matching tools") and names dropping that
// assumption as future work (Section 7). This module provides the missing
// piece: a hybrid matcher combining name similarity (edit distance),
// identifier-token overlap, and instance evidence (datatype castability
// and statistics fit), producing a CorrespondenceSet with confidences.

#ifndef EFES_MATCHING_SCHEMA_MATCHER_H_
#define EFES_MATCHING_SCHEMA_MATCHER_H_

#include <string>
#include <vector>

#include "efes/common/result.h"
#include "efes/profiling/sketch.h"
#include "efes/relational/correspondence.h"
#include "efes/relational/database.h"

namespace efes {

class ProfileCache;

struct MatcherOptions {
  /// Minimum blended score for an attribute correspondence.
  double min_attribute_confidence = 0.55;
  /// Minimum blended score for a relation correspondence.
  double min_relation_confidence = 0.40;
  /// Blend weights (normalized internally).
  double name_weight = 0.45;
  double token_weight = 0.30;
  double instance_weight = 0.25;
  /// Instance evidence requires data on both sides; otherwise its weight
  /// is redistributed to the name signals.
  bool use_instances = true;
};

/// One scored candidate pair (diagnostic output).
struct MatchCandidate {
  std::string source_relation;
  std::string source_attribute;  // empty for relation-level
  std::string target_relation;
  std::string target_attribute;
  double score = 0.0;
};

class SchemaMatcher {
 public:
  SchemaMatcher() = default;
  explicit SchemaMatcher(MatcherOptions options) : options_(options) {}

  /// Scores a single attribute pair in [0, 1]. Instance evidence runs
  /// through the chunked profiler (profiling/profiler.h) under `profile`,
  /// through `cache` when it is non-null; an exact profile that cannot
  /// satisfy a --max-memory budget surfaces as kResourceExhausted rather
  /// than silently degrading the score.
  Result<double> ScoreAttributePair(const Database& source,
                                    const std::string& source_relation,
                                    const AttributeDef& source_attribute,
                                    const Database& target,
                                    const std::string& target_relation,
                                    const AttributeDef& target_attribute,
                                    const ProfileOptions& profile = {},
                                    ProfileCache* cache = nullptr) const;

  /// Produces relation- and attribute-level correspondences from source
  /// into target. Relations are matched greedily 1:1 by the average of
  /// their best attribute scores blended with relation-name similarity;
  /// attributes are then matched greedily 1:1 within matched relation
  /// pairs. `profile` and `cache` are as for ScoreAttributePair.
  Result<CorrespondenceSet> Match(const Database& source,
                                  const Database& target,
                                  const ProfileOptions& profile = {},
                                  ProfileCache* cache = nullptr) const;

  /// All scored relation-level candidates, descending (diagnostics).
  Result<std::vector<MatchCandidate>> ScoreRelations(
      const Database& source, const Database& target,
      const ProfileOptions& profile = {}, ProfileCache* cache = nullptr) const;

 private:
  MatcherOptions options_;
};

}  // namespace efes

#endif  // EFES_MATCHING_SCHEMA_MATCHER_H_
