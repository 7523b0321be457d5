#pragma once

/// @file plan_validate.h
/// Structural invariant checking for MappingPlans.
///
/// A valid plan satisfies, per tile:
///  * all rows/columns lie inside the array geometry;
///  * row / column binding indices are unique;
///  * a row key (ic, dy, dx, dup) is bound at most once, names a channel
///    and duplicate of the layer, and its offset lies inside the parallel
///    window (the kernel for im2col / SMD plans);
///  * a column key (oc, win_py, win_px, dup) is bound at most once, names
///    a channel and duplicate of the layer, and its window index lies
///    inside the parallel window;
/// and globally:
///  * tile (ar, ac) sits at position ar * AC + ac; the tiles of one AR band
///    share their row bindings and those of one AC band their column
///    bindings (the executor sums an AC band's partial sums by column);
///  * each input channel appears in exactly one AR tile band (windowed
///    plans) or each flattened window / kernel element in exactly one AR
///    tile (element-split, im2col and SMD plans);
///  * each output channel (or, element-split, each output column) appears
///    in exactly one AC tile band;
///  * the parallel-window base grid covers every kernel window of the
///    layer at least once;
///  * the realized cycle count equals the analytic cost.
///
/// Cells are not checked: a plan stores none, and the cell rule of
/// mapping_plan.h derives each from its bindings.  The executor-vs-
/// reference oracle and Crossbar::program's double-programming guard
/// remain the independent gates on what the rule programs.

#include <string>
#include <vector>

#include "mapping/mapping_plan.h"

namespace vwsdk {

/// Run all checks; returns a list of human-readable violations (empty if
/// the plan is valid).
std::vector<std::string> validate_plan(const MappingPlan& plan);

/// Throws InternalError listing all violations if the plan is invalid.
void expect_valid(const MappingPlan& plan);

}  // namespace vwsdk
