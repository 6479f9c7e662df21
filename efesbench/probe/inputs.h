// Seeded input generators for the benchmark workloads. Every function is
// a pure function of its arguments: the same seed writes the same bytes.

#ifndef EFESBENCH_PROBE_INPUTS_H_
#define EFESBENCH_PROBE_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "efes/common/result.h"
#include "efes/core/integration_scenario.h"
#include "efes/scenario/fuzzer.h"

namespace efesbench {

/// Row and cell counts of generated input (bytes are measured on disk by
/// the driver script).
struct InputSize {
  size_t rows = 0;
  size_t cells = 0;
};

/// Source rows and cells of a scenario (target example data excluded).
InputSize SourceSize(const efes::IntegrationScenario& scenario);

/// The benchmark's fuzz scenario for `seed`: 3 sources, `entities` root
/// entities with 4 extra attributes (2 text, 1 integer, 1 real; every
/// source renders the numeric ones as decorated text), 2 detail relations,
/// and target example data. The shape is fixed so that seeds vary the data,
/// not the amount of work.
efes::Result<efes::FuzzedScenario> BenchScenario(uint64_t seed,
                                                 size_t entities);

/// The reestimate_warm edit script. Op `op` rewrites three cells of one
/// source's entity table (sources taken in turn); each cell takes the
/// value another row holds in the same non-key column, so the file stays
/// loadable and the edited columns' fingerprints change.
efes::Status ApplyEdit(const std::string& scenario_dir, uint64_t op);

/// Writes the profile_stream CSV: `rows` data rows of 8 columns — a
/// unique `uid`, then the entity tables of a 3-source fuzz scenario
/// (id, name, 5 extra attributes of a fixed type mix) repeated until
/// `rows` is reached.
efes::Result<InputSize> WriteTallCsv(uint64_t seed, size_t rows,
                                     const std::string& path);

}  // namespace efesbench

#endif  // EFESBENCH_PROBE_INPUTS_H_
