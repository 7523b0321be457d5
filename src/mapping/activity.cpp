#include "mapping/activity.h"

#include "common/error.h"
#include "common/math_util.h"

namespace vwsdk {

EnergyReport analytic_activity(const ConvShape& shape,
                               const ArrayGeometry& geometry,
                               const CycleCost& cost) {
  shape.validate();
  geometry.validate();
  VWSDK_REQUIRE(cost.feasible, "analytic_activity of infeasible mapping");

  EnergyReport report;
  report.cycles = cost.total;

  if (cost.smd_duplicates > 1) {
    // One tile; the final chunk may drive fewer duplicates but the rows
    // remain bound (idle inputs are driven with zero), so per-cycle
    // activity is constant.
    const Count volume = shape.kernel_volume();
    const Count rows = checked_mul(volume, cost.smd_duplicates);
    const Count cols = checked_mul(shape.out_channels, cost.smd_duplicates);
    report.row_activations = checked_mul(cost.total, rows);
    report.col_reads = checked_mul(cost.total, cols);
    report.cell_macs = checked_mul(cost.total, checked_mul(volume, cols));
    return report;
  }

  // Windowed and im2col mappings (im2col: window = kernel, N_WP = 1).
  // However the AR tiles split the window's area*IC rows and the AC tiles
  // its N_WP*OC columns, every parallel window drives each row once per
  // AC tile, reads each column once per AR tile, and multiplies by each
  // of the K^2*IC*OC*N_WP programmed weights once.
  const Count n_pw = cost.n_parallel_windows;
  const Count n_wp = windows_in_pw(shape, cost.window);
  const Count rows = checked_mul(cost.window.area(), shape.in_channels);
  const Count cols = checked_mul(n_wp, shape.out_channels);
  report.row_activations =
      checked_mul(n_pw, checked_mul(rows, cost.ac_cycles));
  report.col_reads = checked_mul(n_pw, checked_mul(cols, cost.ar_cycles));
  report.cell_macs = checked_mul(
      n_pw, checked_mul(checked_mul(shape.kernel_w, shape.kernel_h),
                        checked_mul(shape.in_channels, cols)));
  return report;
}

}  // namespace vwsdk
