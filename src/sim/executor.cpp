#include "sim/executor.h"

#include <algorithm>
#include <optional>

#include "common/error.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "mapping/plan_validate.h"
#include "pim/crossbar.h"

namespace vwsdk {

namespace {

/// Padded-coordinate input fetch: (y, x) are relative to the padded
/// feature map; outside the real extent the value is the zero padding.
double fetch_input(const Tensord& ifm, const ConvShape& shape, Dim ic, Dim y,
                   Dim x) {
  const Dim real_y = y - shape.pad_h;
  const Dim real_x = x - shape.pad_w;
  if (real_y < 0 || real_y >= shape.ifm_h || real_x < 0 ||
      real_x >= shape.ifm_w) {
    return 0.0;
  }
  return ifm.at(ic, real_y, real_x);
}

/// Write one output value.  Overlapping clamped windows recompute some
/// outputs; with `check_consistency` the recomputation must reproduce the
/// committed value exactly, otherwise the last computed value stands.
void commit_output(Tensord& ofm, std::vector<char>& written,
                   const ConvShape& shape, Dim oc, Count oy, Count ox,
                   double value, bool check_consistency) {
  const Count ow = shape.windows_w();
  const std::size_t flat = static_cast<std::size_t>(
      (static_cast<Count>(oc) * shape.windows_h() + oy) * ow + ox);
  if (written[flat] != 0 && check_consistency) {
    const double prior = ofm.at(oc, static_cast<Dim>(oy),
                                static_cast<Dim>(ox));
    VWSDK_ASSERT(prior == value,
                 cat("overlapping windows disagree at oc=", oc, " oy=", oy,
                     " ox=", ox, ": ", prior, " vs ", value));
  }
  ofm.at(oc, static_cast<Dim>(oy), static_cast<Dim>(ox)) = value;
  written[flat] = 1;
}

/// A parallel-window base in padded input pixels.
struct WindowBase {
  Dim y = 0;
  Dim x = 0;
};

/// The base of duplicate block `dup` in cycle `c` of a tile's schedule,
/// or nullopt when that block idles.  Windowed plans walk the base grid
/// row-major (their only block is dup 0); SMD block `dup` computes
/// kernel window c * D + dup and idles past the last window.
std::optional<WindowBase> cycle_base(const MappingPlan& plan, Count c,
                                     Dim dup) {
  const ConvShape& shape = plan.shape;
  if (plan.kind != PlanKind::kSmd) {
    const Count nx = static_cast<Count>(plan.base_x.size());
    return WindowBase{plan.base_y[static_cast<std::size_t>(c / nx)],
                      plan.base_x[static_cast<std::size_t>(c % nx)]};
  }
  const Count window = c * plan.cost.smd_duplicates + dup;
  if (window >= shape.num_windows()) {
    return std::nullopt;
  }
  const Count ow = shape.windows_w();
  return WindowBase{static_cast<Dim>((window / ow) * shape.stride_h),
                    static_cast<Dim>((window % ow) * shape.stride_w)};
}

/// Cycles per schedule block: each tile runs a block as one batched
/// compute call.
constexpr Count kBlockCycles = 64;

}  // namespace

ExecutionResult execute_plan(const MappingPlan& plan, const Tensord& ifm,
                             const Tensord& weights,
                             const ExecutionOptions& options) {
  const ConvShape& shape = plan.shape;
  shape.validate();
  const Shape4 expected_ifm{1, shape.in_channels, shape.ifm_h, shape.ifm_w};
  VWSDK_REQUIRE(ifm.shape() == expected_ifm,
                cat("IFM shape ", ifm.shape().to_string(),
                    " does not match layer ", shape.to_string()));
  const Shape4 expected_weights{shape.out_channels, shape.in_channels,
                                shape.kernel_h, shape.kernel_w};
  VWSDK_REQUIRE(weights.shape() == expected_weights,
                cat("weight shape ", weights.shape().to_string(),
                    " does not match layer ", shape.to_string()));
  if (options.validate_plan) {
    expect_valid(plan);
  }

  // --- Program one crossbar per tile. ---------------------------------
  std::optional<NoiseModel> noise;
  if (options.noise.enabled()) {
    noise.emplace(options.noise, options.noise_seed);
  }
  std::vector<Crossbar> arrays;
  arrays.reserve(plan.tiles.size());
  for (const ArrayTile& tile : plan.tiles) {
    Crossbar array(plan.geometry);
    for_each_cell(shape, tile,
                  [&](const RowBinding& rb, const ColBinding& cb,
                      KernelOffset k) {
                    array.program(rb.row, cb.col,
                                  weights.at(cb.oc, rb.ic, k.ky, k.kx),
                                  noise.has_value() ? &*noise : nullptr);
                  });
    arrays.push_back(std::move(array));
  }

  ExecutionResult result;
  result.ofm = Tensord::feature_map(shape.out_channels,
                                    static_cast<Dim>(shape.windows_h()),
                                    static_cast<Dim>(shape.windows_w()));
  for (const Crossbar& array : arrays) {
    result.programmed_cells =
        checked_add(result.programmed_cells, array.programmed_cell_count());
  }
  std::vector<char> written(
      static_cast<std::size_t>(result.ofm.size()), 0);
  // Under noise, overlapping windows read different noisy copies of the
  // kernel, so only noiseless recomputations must agree.
  const bool check_consistency = !options.noise.enabled();

  // One schedule loop for every plan kind: blocks of cycles; per block
  // and AC band, each AR tile computes the block as one batch and the AR
  // partial sums accumulate in ascending AR.  Commits wait for every AC
  // band so they run in schedule order (cycle-major, AC-minor): the last
  // writer of an overlapping output is the cycle-by-cycle walk's.
  VWSDK_ASSERT(!plan.tiles.empty(), "plan has no tiles");
  const Count n_cycles =
      plan.total_cycles() / static_cast<Count>(plan.tiles.size());
  const Dim n_ar = plan.cost.ar_cycles;
  const Dim n_ac = plan.cost.ac_cycles;
  const Count rows = plan.geometry.rows;
  const Count cols = plan.geometry.cols;
  std::vector<double> input;
  std::vector<double> acc;
  for (Count first = 0; first < n_cycles; first += kBlockCycles) {
    const Count batch = std::min(kBlockCycles, n_cycles - first);
    acc.assign(static_cast<std::size_t>(n_ac * batch * cols), 0.0);
    for (Dim ac = 0; ac < n_ac; ++ac) {
      double* band = acc.data() + ac * batch * cols;
      for (Dim ar = 0; ar < n_ar; ++ar) {
        const ArrayTile& tile = plan.tile(ar, ac);
        const Crossbar& array =
            arrays[static_cast<std::size_t>(ar * n_ac + ac)];
        input.assign(static_cast<std::size_t>(batch * rows), 0.0);
        for (Count i = 0; i < batch; ++i) {
          for (const RowBinding& rb : tile.rows) {
            if (const auto base = cycle_base(plan, first + i, rb.dup)) {
              input[static_cast<std::size_t>(i * rows + rb.row)] =
                  fetch_input(ifm, shape, rb.ic, base->y + rb.dy,
                              base->x + rb.dx);
            }
          }
        }
        const std::vector<double> out = array.compute(input, options.adc);
        for (std::size_t j = 0; j < out.size(); ++j) {
          band[j] += out[j];
        }
        result.cycles += batch;
        result.activity.cycles += batch;
        result.activity.row_activations +=
            batch * static_cast<Count>(tile.rows.size());
        result.activity.col_reads +=
            batch * static_cast<Count>(tile.cols.size());
        result.activity.cell_macs += batch * array.programmed_cell_count();
      }
    }
    for (Count i = 0; i < batch; ++i) {
      for (Dim ac = 0; ac < n_ac; ++ac) {
        // Column bindings are identical across the AR tiles of one AC
        // band; commit with the last tile's bindings.
        const double* read_out = acc.data() + (ac * batch + i) * cols;
        for (const ColBinding& cb : plan.tile(n_ar - 1, ac).cols) {
          if (const auto base = cycle_base(plan, first + i, cb.dup)) {
            commit_output(result.ofm, written, shape, cb.oc,
                          base->y / shape.stride_h + cb.win_py,
                          base->x / shape.stride_w + cb.win_px,
                          read_out[cb.col], check_consistency);
          }
        }
      }
    }
  }

  // Every output element must have been produced.
  const bool all_written =
      std::all_of(written.begin(), written.end(),
                  [](char flag) { return flag != 0; });
  VWSDK_ASSERT(all_written, "execution left output elements unwritten");
  VWSDK_ASSERT(result.cycles == plan.cost.total,
               cat("executed ", result.cycles, " cycles, analytic model says ",
                   plan.cost.total));
  return result;
}

}  // namespace vwsdk
