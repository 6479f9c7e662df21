// The sorted-by-value §5.1 statistics, kept as a test oracle.
//
// StatisticsSketch::Finalize derives its statistics without sorting the
// distinct values (profiling/sketch.h). ReferenceStatistics is the
// formulation it replaced: profile a whole column exactly, sort every
// non-null value, group runs of equal values, and run every
// floating-point sum over the groups in that sorted-value order. The
// sketch is differential-tested against it in tests/sketch_test.cc.
//
// Two rules are shared with the sketch rather than inherited from the
// old code, because the old code had no defined behaviour there:
//   * NaN never equals itself, so each NaN cell is a group of its own,
//     and the value order puts NaN after every number.
//   * A numeric reading counts only when it is finite.

#ifndef EFES_TESTS_SKETCH_REFERENCE_H_
#define EFES_TESTS_SKETCH_REFERENCE_H_

#include <vector>

#include "efes/common/result.h"
#include "efes/profiling/sketch.h"
#include "efes/profiling/statistics.h"
#include "efes/relational/value.h"

namespace efes {

/// The exact statistics of `column` against `target`, from the sorted
/// formulas. A column must not mix INTEGER and REAL values that compare
/// equal (the group's representative would then be unspecified).
AttributeStatistics ReferenceStatistics(const std::vector<Value>& column,
                                        DataType target);

// The two-pass `efes profile`, kept as the oracle of the inferring
// sketch (StatisticsSketch::Inferring). A column is its CSV cells: text,
// with NULL for an empty cell.

/// Pass 1: INTEGER when every non-null cell casts to INTEGER, else REAL
/// when every one casts to REAL, else TEXT, also when no cell is
/// non-null.
DataType TwoPassType(const std::vector<Value>& cells);

/// Pass 2: every cell absorbed, in order, into one sketch typed by pass 1.
Result<AttributeStatistics> TwoPassStatistics(const std::vector<Value>& cells,
                                              const ProfileOptions& options);

}  // namespace efes

#endif  // EFES_TESTS_SKETCH_REFERENCE_H_
