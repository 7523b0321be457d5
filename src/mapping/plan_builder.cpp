#include "mapping/plan_builder.h"

#include <algorithm>

#include "common/error.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace vwsdk {

namespace {

/// Clamped base positions of parallel windows along one axis, in padded
/// input pixels.  Covers kernel-window indices [0, windows) in groups of
/// `per_pw`, the final group clamped so the window stays inside the input
/// (clamping makes trailing windows overlap -- they recompute a few
/// outputs, exactly as the ceil in Eq. (3) implies).
std::vector<Dim> window_bases(Count windows, Count per_pw, Dim stride) {
  VWSDK_ASSERT(windows >= per_pw && per_pw > 0, "bad window grouping");
  std::vector<Dim> bases;
  const Count groups = ceil_div(windows, per_pw);
  bases.reserve(static_cast<std::size_t>(groups));
  for (Count g = 0; g < groups; ++g) {
    const Count first_window = std::min(g * per_pw, windows - per_pw);
    bases.push_back(static_cast<Dim>(first_window * stride));
  }
  return bases;
}

/// The bindings of one band, flat indices [first, end) of one matrix axis:
/// `dups` copies, copy `dup` at array index dup * (end - first) onwards.
/// `bind(index, flat, dup)` makes one binding.
template <typename Binding, typename Bind>
std::vector<Binding> band(Count first, Count end, Dim dups, Bind bind) {
  const Count size = end - first;
  std::vector<Binding> bindings;
  bindings.reserve(static_cast<std::size_t>(dups * size));
  for (Dim dup = 0; dup < dups; ++dup) {
    for (Count flat = first; flat < end; ++flat) {
      bindings.push_back(
          bind(static_cast<Dim>(dup * size + flat - first), flat, dup));
    }
  }
  return bindings;
}

}  // namespace

MappingPlan build_plan_for_cost(const ConvShape& shape,
                                const ArrayGeometry& geometry,
                                const CycleCost& cost) {
  shape.validate();
  geometry.validate();
  VWSDK_REQUIRE(cost.feasible, "cannot build a plan for an infeasible cost");
  const ParallelWindow pw = cost.window;
  VWSDK_REQUIRE(window_admissible(shape, pw),
                cat("window ", pw.to_string(), " not admissible"));
  const bool element = cost.split == RowSplit::kElementGranular;
  const Dim dups = cost.smd_duplicates;
  VWSDK_REQUIRE(!element || pw == kernel_window(shape),
                cat("element-granular costs cut the kernel window, not ",
                    pw.to_string()));
  VWSDK_REQUIRE(dups == 1 || (dups > 1 && element),
                cat("a cost with ", dups,
                    " SMD duplicates must be element-granular"));
  VWSDK_REQUIRE(cost.ic_t > 0 && cost.oc_t > 0, "empty channel tile");

  const Count wip_w = windows_in_pw_w(shape, pw);
  const Count wip_h = windows_in_pw_h(shape, pw);
  const Count n_wp = checked_mul(wip_w, wip_h);
  const Count area = pw.area();
  const Count flat_rows = checked_mul(area, shape.in_channels);
  const Count flat_cols = checked_mul(n_wp, shape.out_channels);
  // Channel tiles that fit one array are cut whole; anything else fills
  // every array.
  const Count tile_rows = checked_mul(area, cost.ic_t);
  const Count tile_cols = checked_mul(n_wp, cost.oc_t);
  const bool channel_tiles =
      !element && tile_rows <= geometry.rows && tile_cols <= geometry.cols;
  const Count row_stride = channel_tiles ? tile_rows : geometry.rows;
  const Count col_stride = channel_tiles ? tile_cols : geometry.cols;
  VWSDK_REQUIRE(ceil_div(flat_rows, row_stride) == cost.ar_cycles &&
                    ceil_div(flat_cols, col_stride) == cost.ac_cycles,
                cat("cost ", cost.to_string(), " does not match its layout's ",
                    ceil_div(flat_rows, row_stride), "x",
                    ceil_div(flat_cols, col_stride), " AR x AC tiles"));
  VWSDK_REQUIRE(
      checked_mul(dups, std::min(flat_rows, row_stride)) <= geometry.rows &&
          checked_mul(dups, std::min(flat_cols, col_stride)) <=
              geometry.cols,
      cat(dups, " duplicates exceed the array"));

  MappingPlan plan;
  plan.shape = shape;
  plan.geometry = geometry;
  plan.cost = cost;
  plan.kind = dups > 1        ? PlanKind::kSmd
              : element       ? PlanKind::kIm2colDense
              : channel_tiles ? PlanKind::kWindowed
                              : PlanKind::kWindowedSplit;
  if (dups == 1) {
    plan.base_x = window_bases(shape.windows_w(), wip_w, shape.stride_w);
    plan.base_y = window_bases(shape.windows_h(), wip_h, shape.stride_h);
  }

  const auto bind_row = [&](Dim row, Count flat, Dim dup) {
    const Dim offset = static_cast<Dim>(flat % area);
    return RowBinding{row, static_cast<Dim>(flat / area), offset / pw.w,
                      offset % pw.w, dup};
  };
  const auto bind_col = [&](Dim col, Count flat, Dim dup) {
    const Dim window = static_cast<Dim>(flat % n_wp);
    return ColBinding{col, static_cast<Dim>(flat / n_wp),
                      window % static_cast<Dim>(wip_w),
                      window / static_cast<Dim>(wip_w), dup};
  };
  plan.tiles.reserve(
      static_cast<std::size_t>(checked_mul(cost.ar_cycles, cost.ac_cycles)));
  for (Dim ar = 0; ar < cost.ar_cycles; ++ar) {
    const Count row_first = ar * row_stride;
    const std::vector<RowBinding> rows = band<RowBinding>(
        row_first, std::min(flat_rows, row_first + row_stride), dups,
        bind_row);
    for (Dim ac = 0; ac < cost.ac_cycles; ++ac) {
      const Count col_first = ac * col_stride;
      plan.tiles.push_back(ArrayTile{
          ar, ac, rows,
          band<ColBinding>(col_first,
                           std::min(flat_cols, col_first + col_stride), dups,
                           bind_col)});
    }
  }
  return plan;
}

}  // namespace vwsdk
