#pragma once

/// @file plan_builder.h
/// Construction of executable MappingPlans from analytic mapping choices.
///
/// **The cut rule.**  Every mapping of Fig. 2 is one matrix cut across
/// arrays.  The matrix belongs to the parallel window `cost.window` (the
/// kernel for im2col and SMD): its rows are the window's unrolled inputs
/// (ic, dy, dx), flattened channel-major, and its columns are the shifted
/// kernels (oc, wy, wx), flattened oc-major:
///
///     flat row = ic * PW_w*PW_h + dy * PW_w + dx
///     flat col = oc * N_WP      + wy * WIP_w + wx
///
/// AR tile `ar` holds flat rows [ar*row_stride, ...) and AC tile `ac` flat
/// columns [ac*col_stride, ...), each at its offset from the band's first
/// index.  The strides come from the cost:
///
///  * **windowed** (VW-SDK, and SDK windows that fit one array; Fig.
///    2(c)/(d)): a channel-granular cost whose channel tiles fit one array
///    cuts whole channels, row_stride = IC_t * PW-area, and whole output
///    channels, col_stride = OC_t * N_WP.  VW-SDK's "partial channels" are
///    this smaller row cut;
///  * **element-split** (SDK windows that overflow one array): every
///    array is filled, row_stride = rows and col_stride = cols, so a band
///    may start mid-channel -- Eq. (1)'s AR = ceil(PW-area*IC / rows) and
///    AC = ceil(OC*N_WP / cols);
///  * **im2col** (Fig. 2(a)): the element split of the kernel window,
///    whose one column per output channel computes window 0;
///  * **SMD** (Fig. 2(b)): D = cost.smd_duplicates copies of the im2col
///    matrix in one array.  Copy d is bound with dup = d at rows and
///    columns offset by d times the band, so the cell rule programs no cell
///    across two blocks.  Each cycle processes up to D consecutive kernel
///    windows (row-major over the output grid) instead of a base grid.
///
/// The builder emits only row and column bindings; which cells hold which
/// weight follows from them by the cell rule of mapping_plan.h.
/// plan_validate asserts these conventions independently, and the executor
/// relies on them.

#include "mapping/mapping_plan.h"

namespace vwsdk {

/// Build the plan realizing `cost`, a feasible CycleCost from any of the
/// cost functions (im2col_cost, smd_cost, sdk_cost, vw_cost or a bit-sliced
/// variant), by the cut rule above.  Throws InvalidArgument for a cost the
/// layout cannot realize: infeasible, an inadmissible window, an
/// element-granular or duplicated cost whose window is not the kernel,
/// empty channel tiles, or AR/AC counts other than the cut's band counts.
/// The plan's cost is `cost`.
MappingPlan build_plan_for_cost(const ConvShape& shape,
                                const ArrayGeometry& geometry,
                                const CycleCost& cost);

}  // namespace vwsdk
