#include "efes/profiling/constraint_discovery.h"

#include <algorithm>
#include <unordered_map>
#include <sstream>
#include <unordered_set>

#include "efes/cache/fingerprint.h"
#include "efes/cache/profile_cache.h"
#include "efes/common/parallel.h"
#include "efes/common/metrics.h"
#include "efes/profiling/sketch.h"
#include "efes/telemetry/trace.h"

namespace efes {

namespace {

bool IsDeclared(const Schema& schema, const Constraint& candidate) {
  for (const Constraint& declared : schema.constraints()) {
    if (declared.kind == candidate.kind &&
        declared.relation == candidate.relation &&
        declared.attributes == candidate.attributes &&
        declared.referenced_relation == candidate.referenced_relation &&
        declared.referenced_attributes == candidate.referenced_attributes) {
      return true;
    }
    // A declared PK subsumes discovered NOT NULL / UNIQUE over the same
    // attribute set.
    if (declared.kind == ConstraintKind::kPrimaryKey &&
        declared.relation == candidate.relation) {
      if (candidate.kind == ConstraintKind::kUnique &&
          declared.attributes == candidate.attributes) {
        return true;
      }
      if (candidate.kind == ConstraintKind::kNotNull &&
          candidate.attributes.size() == 1 &&
          std::find(declared.attributes.begin(), declared.attributes.end(),
                    candidate.attributes[0]) != declared.attributes.end()) {
        return true;
      }
    }
  }
  return false;
}

/// Null count, the distinct non-null values, and a bloom filter over
/// their content hashes, computed once up front (the legacy code
/// recomputed the distinct set for every candidate pair that referenced
/// the column). The bloom is the sketch half of discovery: its sound
/// subset test prunes inclusion-dependency candidates before the exact
/// per-value scan ever runs.
struct DiscoveryColumnProfile {
  size_t nulls = 0;
  std::unordered_set<Value, ValueHash> values;
  ValueBloom bloom;

  size_t distinct() const { return values.size(); }
};

DiscoveryColumnProfile ProfileDiscoveryColumn(const Table& table,
                                              size_t column) {
  DiscoveryColumnProfile profile;
  for (const Value& v : table.column(column)) {
    if (v.is_null()) {
      ++profile.nulls;
    } else {
      auto [it, inserted] = profile.values.insert(v);
      if (inserted) profile.bloom.InsertHash(SketchValueHash(v));
    }
  }
  return profile;
}

/// Checks the exact unary functional dependency lhs -> rhs.
bool FdHolds(const Table& table, size_t lhs, size_t rhs) {
  std::unordered_map<Value, Value, ValueHash> dependent_of;
  for (size_t r = 0; r < table.row_count(); ++r) {
    const Value& determinant = table.at(r, lhs);
    if (determinant.is_null()) continue;
    const Value& dependent = table.at(r, rhs);
    auto [it, inserted] = dependent_of.emplace(determinant, dependent);
    if (!inserted && !(it->second == dependent)) return false;
  }
  return true;
}

}  // namespace

std::string DiscoveredConstraint::ToString() const {
  std::ostringstream oss;
  oss << constraint.ToString() << " (support " << support << ")";
  return oss.str();
}

namespace {

/// The full (uncached) mining pass; DiscoverConstraints below fronts it
/// with the caller's profile cache. A failed parallel region (a
/// cancellation, an injected fault, a task exception) fails the pass.
Result<std::vector<DiscoveredConstraint>> DiscoverConstraintsUncached(
    const Database& database, const DiscoveryOptions& options) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  static Histogram& discover_ms =
      metrics.GetHistogram("profiling.discovery.ms");
  static Counter& candidates =
      metrics.GetCounter("profiling.discovery.candidates");
  static Counter& validated =
      metrics.GetCounter("profiling.discovery.validated");
  static Counter& ind_checks =
      metrics.GetCounter("profiling.discovery.ind_checks");
  static Counter& bloom_pruned =
      metrics.GetCounter("profiling.discovery.bloom_pruned");
  TraceSpan span("profiling.discover", nullptr, &discover_ms);

  std::vector<DiscoveredConstraint> discovered;
  const Schema& schema = database.schema();

  auto propose = [&](Constraint constraint, size_t support) {
    candidates.Increment();
    if (options.skip_declared && IsDeclared(schema, constraint)) return;
    validated.Increment();
    discovered.push_back(DiscoveredConstraint{std::move(constraint), support});
  };

  // --- Per-column profiles (parallel) --------------------------------------
  // Tables below the row threshold never contribute candidates; skip them.
  std::vector<const Table*> tables;
  for (const Table& table : database.tables()) {
    if (table.row_count() >= options.min_row_count) tables.push_back(&table);
  }
  std::vector<std::pair<size_t, size_t>> column_index;  // (table, column)
  for (size_t t = 0; t < tables.size(); ++t) {
    for (size_t c = 0; c < tables[t]->column_count(); ++c) {
      column_index.emplace_back(t, c);
    }
  }
  EFES_ASSIGN_OR_RETURN(
      std::vector<DiscoveryColumnProfile> profiled,
      ParallelMap(column_index.size(), [&](size_t i) {
        auto [t, c] = column_index[i];
        return ProfileDiscoveryColumn(*tables[t], c);
      }));
  std::vector<std::vector<DiscoveryColumnProfile>> profiles(tables.size());
  for (size_t i = 0; i < column_index.size(); ++i) {
    auto [t, c] = column_index[i];
    (void)c;  // columns arrive in order per table
    profiles[t].push_back(std::move(profiled[i]));
  }

  // --- NOT NULL and single-column UNIQUE ----------------------------------
  for (size_t t = 0; t < tables.size(); ++t) {
    const Table& table = *tables[t];
    for (size_t c = 0; c < table.column_count(); ++c) {
      const std::string& attribute = table.def().attributes()[c].name;
      const DiscoveryColumnProfile& profile = profiles[t][c];
      if (profile.nulls == 0) {
        propose(Constraint::NotNull(table.name(), attribute),
                table.row_count());
      }
      if (profile.nulls == 0 && profile.distinct() == table.row_count()) {
        propose(Constraint::Unique(table.name(), {attribute}),
                table.row_count());
      }
    }
  }

  // --- Unary functional dependencies A -> B --------------------------------
  if (options.discover_functional_dependencies) {
    // Candidate pairs in canonical (table, lhs, rhs) order; the exact
    // row-scan validation is the expensive part and fans out.
    std::vector<std::tuple<size_t, size_t, size_t>> fd_candidates;
    for (size_t t = 0; t < tables.size(); ++t) {
      const Table& table = *tables[t];
      for (size_t lhs = 0; lhs < table.column_count(); ++lhs) {
        const DiscoveryColumnProfile& lhs_profile = profiles[t][lhs];
        if (lhs_profile.distinct() < options.min_distinct_for_fd) continue;
        // A unique LHS determines everything trivially; skip.
        if (lhs_profile.nulls == 0 &&
            lhs_profile.distinct() == table.row_count()) {
          continue;
        }
        for (size_t rhs = 0; rhs < table.column_count(); ++rhs) {
          if (lhs == rhs) continue;
          fd_candidates.emplace_back(t, lhs, rhs);
        }
      }
    }
    // `char` (not bool): vector<bool> packs bits, and concurrent writes
    // to neighbouring slots would race.
    EFES_ASSIGN_OR_RETURN(
        std::vector<char> fd_holds,
        ParallelMap(fd_candidates.size(), [&](size_t i) -> char {
          auto [t, lhs, rhs] = fd_candidates[i];
          return FdHolds(*tables[t], lhs, rhs) ? 1 : 0;
        }));
    for (size_t i = 0; i < fd_candidates.size(); ++i) {
      if (!fd_holds[i]) continue;
      auto [t, lhs, rhs] = fd_candidates[i];
      const Table& table = *tables[t];
      propose(Constraint::FunctionalDependency(
                  table.name(), {table.def().attributes()[lhs].name},
                  {table.def().attributes()[rhs].name}),
              table.row_count());
    }
  }

  // --- Unary inclusion dependencies (FK candidates) -----------------------
  // Candidate pairs that survive the cheap profile-based prunes, in
  // canonical (child, child column, parent, parent column) order; the
  // per-pair inclusion scan fans out.
  std::vector<std::tuple<size_t, size_t, size_t, size_t>> ind_candidates;
  for (size_t ct = 0; ct < tables.size(); ++ct) {
    const Table& child = *tables[ct];
    for (size_t cc = 0; cc < child.column_count(); ++cc) {
      const DiscoveryColumnProfile& child_profile = profiles[ct][cc];
      if (child_profile.distinct() < options.min_distinct_for_ind) continue;
      for (size_t pt = 0; pt < tables.size(); ++pt) {
        const Table& parent = *tables[pt];
        for (size_t pc = 0; pc < parent.column_count(); ++pc) {
          if (&parent == &child && pc == cc) continue;
          if (parent.def().attributes()[pc].type !=
              child.def().attributes()[cc].type) {
            continue;
          }
          const DiscoveryColumnProfile& parent_profile = profiles[pt][pc];
          if (options.require_unique_referenced) {
            bool unique = parent_profile.nulls == 0 &&
                          parent_profile.distinct() == parent.row_count();
            if (!unique) continue;
          }
          if (parent_profile.distinct() < child_profile.distinct()) continue;
          // Sketch prune: if some child hash bit is missing from the
          // parent bloom, at least one child value is definitely absent
          // and the inclusion cannot hold. A "maybe" still goes to the
          // exact scan, so the discovered set is unchanged.
          if (!child_profile.bloom.SubsetOf(parent_profile.bloom)) {
            bloom_pruned.Increment();
            continue;
          }
          ind_checks.Increment();
          ind_candidates.emplace_back(ct, cc, pt, pc);
        }
      }
    }
  }
  EFES_ASSIGN_OR_RETURN(
      std::vector<char> included,
      ParallelMap(ind_candidates.size(), [&](size_t i) -> char {
        auto [ct, cc, pt, pc] = ind_candidates[i];
        const std::unordered_set<Value, ValueHash>& child_values =
            profiles[ct][cc].values;
        const std::unordered_set<Value, ValueHash>& parent_values =
            profiles[pt][pc].values;
        return std::all_of(child_values.begin(), child_values.end(),
                           [&](const Value& v) {
                             return parent_values.count(v) > 0;
                           })
                   ? 1
                   : 0;
      }));
  for (size_t i = 0; i < ind_candidates.size(); ++i) {
    if (!included[i]) continue;
    auto [ct, cc, pt, pc] = ind_candidates[i];
    const Table& child = *tables[ct];
    const Table& parent = *tables[pt];
    propose(Constraint::ForeignKey(
                child.name(), {child.def().attributes()[cc].name},
                parent.name(), {parent.def().attributes()[pc].name}),
            child.row_count());
  }

  return discovered;
}

/// Discovery results depend on the data *and* on every DiscoveryOptions
/// knob, so the cache key mixes both.
uint64_t FingerprintDiscovery(const Database& database,
                              const DiscoveryOptions& options) {
  Fingerprinter fp;
  fp.MixUint64(FingerprintDatabase(database));
  fp.MixUint64(options.min_row_count);
  fp.MixUint64(options.min_distinct_for_ind);
  fp.MixBool(options.require_unique_referenced);
  fp.MixBool(options.skip_declared);
  fp.MixBool(options.discover_functional_dependencies);
  fp.MixUint64(options.min_distinct_for_fd);
  return fp.digest();
}

}  // namespace

Result<std::vector<DiscoveredConstraint>> DiscoverConstraints(
    const Database& database, const DiscoveryOptions& options,
    ProfileCache* cache) {
  if (cache == nullptr) return DiscoverConstraintsUncached(database, options);
  const uint64_t key = FingerprintDiscovery(database, options);
  if (std::optional<std::vector<DiscoveredConstraint>> hit =
          cache->LookupConstraints(key)) {
    return *std::move(hit);
  }
  EFES_ASSIGN_OR_RETURN(std::vector<DiscoveredConstraint> discovered,
                        DiscoverConstraintsUncached(database, options));
  cache->StoreConstraints(key, discovered);
  return discovered;
}

Result<Schema> SchemaWithDiscoveredConstraints(
    const Database& database, const DiscoveryOptions& options,
    ProfileCache* cache) {
  EFES_ASSIGN_OR_RETURN(std::vector<DiscoveredConstraint> discovered,
                        DiscoverConstraints(database, options, cache));
  Schema schema = database.schema();
  for (DiscoveredConstraint& d : discovered) {
    schema.AddConstraint(std::move(d.constraint));
  }
  return schema;
}

Result<Database> DatabaseWithDiscoveredConstraints(
    const Database& database, const DiscoveryOptions& options,
    ProfileCache* cache) {
  EFES_ASSIGN_OR_RETURN(
      Schema schema,
      SchemaWithDiscoveredConstraints(database, options, cache));
  EFES_ASSIGN_OR_RETURN(Database completed,
                        Database::Create(std::move(schema)));
  for (const Table& table : database.tables()) {
    EFES_ASSIGN_OR_RETURN(Table * destination,
                          completed.mutable_table(table.name()));
    for (size_t r = 0; r < table.row_count(); ++r) {
      EFES_RETURN_IF_ERROR(destination->AppendRow(table.Row(r)));
    }
  }
  return completed;
}

}  // namespace efes
