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

/// Padded-coordinate input fetch from the raw (1, IC, I_h, I_w) data:
/// (y, x) are relative to the padded feature map; outside the real
/// extent the value is the zero padding.  `ic` must be in range.
double fetch_input(const double* ifm, const ConvShape& shape, Dim ic, Dim y,
                   Dim x) {
  const Dim real_y = y - shape.pad_h;
  const Dim real_x = x - shape.pad_w;
  if (real_y < 0 || real_y >= shape.ifm_h || real_x < 0 ||
      real_x >= shape.ifm_w) {
    return 0.0;
  }
  return ifm[(static_cast<Count>(ic) * shape.ifm_h + real_y) * shape.ifm_w +
             real_x];
}

/// A parallel-window base: in padded input pixels (y, x) and in kernel
/// windows (wy, wx).
struct WindowBase {
  Dim y = 0;
  Dim x = 0;
  Count wy = 0;
  Count wx = 0;
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
    const Dim y = plan.base_y[static_cast<std::size_t>(c / nx)];
    const Dim x = plan.base_x[static_cast<std::size_t>(c % nx)];
    return WindowBase{y, x, y / shape.stride_h, x / shape.stride_w};
  }
  const Count window = c * plan.cost.smd_duplicates + dup;
  if (window >= shape.num_windows()) {
    return std::nullopt;
  }
  const Count ow = shape.windows_w();
  const Count wy = window / ow;
  const Count wx = window % ow;
  return WindowBase{static_cast<Dim>(wy * shape.stride_h),
                    static_cast<Dim>(wx * shape.stride_w), wy, wx};
}

/// The output feature map being committed, with a written flag per
/// element.
struct OutputSink {
  double* ofm;
  std::vector<char>& written;
  Count out_h;
  Count out_w;
  bool check_consistency;

  /// Write one output value.  Overlapping clamped windows recompute some
  /// outputs; with `check_consistency` the recomputation must reproduce
  /// the committed value exactly, otherwise the last computed value
  /// stands.  `oc` must be in range.
  void commit(Dim oc, Count oy, Count ox, double value) {
    VWSDK_ASSERT(oy >= 0 && oy < out_h && ox >= 0 && ox < out_w,
                 cat("output (", oy, ", ", ox, ") outside the ", out_h, "x",
                     out_w, " feature map"));
    const auto flat = static_cast<std::size_t>(
        (static_cast<Count>(oc) * out_h + oy) * out_w + ox);
    if (written[flat] != 0 && check_consistency) {
      VWSDK_ASSERT(ofm[flat] == value,
                   cat("overlapping windows disagree at oc=", oc, " oy=", oy,
                       " ox=", ox, ": ", ofm[flat], " vs ", value));
    }
    ofm[flat] = value;
    written[flat] = 1;
  }
};

/// Cycles per schedule block: each tile runs a block as one batched
/// compute call.
constexpr Count kBlockCycles = 64;

/// Below this many crossbar MACs per plan the pool dispatch overhead
/// dominates the arithmetic; the plan runs inline on the calling thread
/// (bitwise identical either way).
constexpr Count kParallelCutoffMacs = Count{1} << 15;

/// A wave holds at least this many work items per pool slot, so the
/// slots even out uneven items...
constexpr Count kItemsPerSlot = 2;

/// ...and, when its accumulators fit this many doubles (2 MB), as many
/// more blocks as fit, so narrow tiles pay the dispatch and the commit
/// hand-off once per thousands of cycles rather than per block.
constexpr Count kWaveAccDoubles = Count{1} << 18;

/// The crossbar of `tile`: its compact block spans the tile's bindings,
/// programmed by the cell rule in for_each_cell order (so noise draws
/// follow that order).  Rejects bindings outside the array or the layer,
/// or naming an SMD block the plan does not have: the schedule loop
/// indexes by them.
Crossbar program_tile(const MappingPlan& plan, const ArrayTile& tile,
                      const Tensord& weights, NoiseModel* noise) {
  const ArrayGeometry& geometry = plan.geometry;
  const Dim dups = plan.cost.smd_duplicates;
  Dim rows = 1;
  Dim cols = 1;
  for (const RowBinding& rb : tile.rows) {
    VWSDK_REQUIRE(rb.row >= 0 && rb.row < geometry.rows && rb.dup >= 0 &&
                      rb.dup < dups && rb.ic >= 0 &&
                      rb.ic < plan.shape.in_channels,
                  cat("row binding ", rb.row, " (ic ", rb.ic, ", dup ",
                      rb.dup, ") outside array ", geometry.to_string(),
                      " or layer ", plan.shape.to_string()));
    rows = std::max(rows, rb.row + 1);
  }
  for (const ColBinding& cb : tile.cols) {
    VWSDK_REQUIRE(cb.col >= 0 && cb.col < geometry.cols && cb.dup >= 0 &&
                      cb.dup < dups && cb.oc >= 0 &&
                      cb.oc < plan.shape.out_channels,
                  cat("column binding ", cb.col, " (oc ", cb.oc, ", dup ",
                      cb.dup, ") outside array ", geometry.to_string(),
                      " or layer ", plan.shape.to_string()));
    cols = std::max(cols, cb.col + 1);
  }
  Crossbar array(geometry, rows, cols);
  for_each_cell(plan.shape, tile,
                [&](const RowBinding& rb, const ColBinding& cb,
                    KernelOffset k) {
                  array.program(rb.row, cb.col,
                                weights.at(cb.oc, rb.ic, k.ky, k.kx), noise);
                });
  return array;
}

}  // namespace

ExecutionResult execute_plan(const MappingPlan& plan, const Tensord& ifm,
                             const Tensord& weights,
                             const ExecutionOptions& options,
                             ThreadPool& pool) {
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

  // --- Program one crossbar per tile, on its compact block. -----------
  std::optional<NoiseModel> noise;
  if (options.noise.enabled()) {
    noise.emplace(options.noise, options.noise_seed);
  }
  const Dim n_ar = plan.cost.ar_cycles;
  const Dim n_ac = plan.cost.ac_cycles;
  VWSDK_ASSERT(n_ar > 0 && n_ac > 0 &&
                   static_cast<Count>(plan.tiles.size()) ==
                       Count{n_ar} * n_ac,
               cat("plan has ", plan.tiles.size(), " tiles for ", n_ar,
                   " x ", n_ac, " AR x AC"));
  std::vector<Crossbar> arrays;
  arrays.reserve(plan.tiles.size());
  for (const ArrayTile& tile : plan.tiles) {
    arrays.push_back(program_tile(plan, tile, weights,
                                  noise.has_value() ? &*noise : nullptr));
  }

  // Every tile runs every cycle, so the activity is closed-form.
  const Count n_cycles =
      plan.total_cycles() / static_cast<Count>(plan.tiles.size());
  ExecutionResult result;
  result.ofm = Tensord::feature_map(shape.out_channels,
                                    static_cast<Dim>(shape.windows_h()),
                                    static_cast<Dim>(shape.windows_w()));
  Count max_rows = 1;
  Count acc_cols = 1;
  Count macs_per_cycle = 0;
  for (std::size_t t = 0; t < arrays.size(); ++t) {
    const Crossbar& array = arrays[t];
    const ArrayTile& tile = plan.tiles[t];
    result.programmed_cells =
        checked_add(result.programmed_cells, array.programmed_cell_count());
    result.activity.cycles += n_cycles;
    result.activity.row_activations +=
        n_cycles * static_cast<Count>(tile.rows.size());
    result.activity.col_reads +=
        n_cycles * static_cast<Count>(tile.cols.size());
    result.activity.cell_macs += n_cycles * array.programmed_cell_count();
    max_rows = std::max<Count>(max_rows, array.bound_rows());
    acc_cols = std::max<Count>(acc_cols, array.bound_cols());
    macs_per_cycle += Count{array.bound_rows()} * array.bound_cols();
  }
  result.cycles = result.activity.cycles;

  // Clamped windows overlap and recompute some outputs.  Channel tiles,
  // im2col and SMD sum each output's terms in the same grouping whatever
  // window computes it, so without noise a recomputation must reproduce
  // the committed value bitwise.  Element-split tiles cut each window's
  // taps at a different element, and noisy tiles hold different copies
  // of the kernel: there the recomputations may differ and the last one
  // stands.
  const bool check_consistency =
      !options.noise.enabled() && plan.kind != PlanKind::kWindowedSplit;
  std::vector<char> written(
      static_cast<std::size_t>(result.ofm.size()), 0);
  OutputSink sink{result.ofm.data().data(), written, shape.windows_h(),
                  shape.windows_w(), check_consistency};

  // One schedule loop for every plan kind.  A work item is one block of
  // kBlockCycles cycles on one AC band: it gathers each AR tile's inputs,
  // computes the block on that tile's crossbar, and sums the AR partial
  // read-outs in ascending AR into its own accumulator.  Items are
  // independent, so a wave of them fans out over the pool, each slot
  // reusing its own gather and read-out scratch.  The wave then commits
  // on this thread in schedule order (cycle-major, AC-minor): the last
  // writer of an overlapping output is the cycle-by-cycle walk's.
  const Dim dups = plan.cost.smd_duplicates;
  const bool fan_out =
      pool.size() > 1 && n_cycles * macs_per_cycle >= kParallelCutoffMacs;
  const Count slots = fan_out ? pool.size() : 1;
  const Count wave_blocks = std::max<Count>(
      {1, ceil_div(kItemsPerSlot * slots, n_ac),
       kWaveAccDoubles / (n_ac * kBlockCycles * acc_cols)});
  const Count wave_cycles = wave_blocks * kBlockCycles;
  struct Scratch {
    std::vector<double> input;
    std::vector<double> read_out;
  };
  std::vector<Scratch> scratch(static_cast<std::size_t>(slots));
  for (Scratch& s : scratch) {
    s.input.resize(static_cast<std::size_t>(kBlockCycles * max_rows));
    s.read_out.resize(static_cast<std::size_t>(kBlockCycles * acc_cols));
  }
  std::vector<double> acc(
      static_cast<std::size_t>(wave_blocks * n_ac * kBlockCycles * acc_cols));
  std::vector<std::optional<WindowBase>> bases(
      static_cast<std::size_t>(wave_cycles * dups));

  const double* ifm_data = ifm.data().data();
  const auto run_item = [&](Count wave_cycle_count, Count slot, Count item) {
    const Count first = (item / n_ac) * kBlockCycles;  // wave-relative
    const Dim ac = static_cast<Dim>(item % n_ac);
    const Count batch = std::min(kBlockCycles, wave_cycle_count - first);
    double* band = acc.data() + item * kBlockCycles * acc_cols;
    std::fill(band, band + batch * acc_cols, 0.0);
    Scratch& s = scratch[static_cast<std::size_t>(slot)];
    for (Dim ar = 0; ar < n_ar; ++ar) {
      const ArrayTile& tile = plan.tile(ar, ac);
      const Crossbar& array =
          arrays[static_cast<std::size_t>(ar * n_ac + ac)];
      const Count rows = array.bound_rows();
      const Count cols = array.bound_cols();
      double* input = s.input.data();
      std::fill(input, input + batch * rows, 0.0);
      for (Count i = 0; i < batch; ++i) {
        const std::optional<WindowBase>* base =
            bases.data() + (first + i) * dups;
        double* drive = input + i * rows;
        for (const RowBinding& rb : tile.rows) {
          if (const std::optional<WindowBase>& b = base[rb.dup]) {
            drive[rb.row] = fetch_input(ifm_data, shape, rb.ic,
                                        b->y + rb.dy, b->x + rb.dx);
          }
        }
      }
      double* read_out = s.read_out.data();
      array.compute({input, static_cast<std::size_t>(batch * rows)},
                    {read_out, static_cast<std::size_t>(batch * cols)},
                    options.adc);
      for (Count i = 0; i < batch; ++i) {
        for (Count j = 0; j < cols; ++j) {
          band[i * acc_cols + j] += read_out[i * cols + j];
        }
      }
    }
  };

  for (Count wave = 0; wave < n_cycles; wave += wave_cycles) {
    const Count cycles = std::min(wave_cycles, n_cycles - wave);
    for (Count i = 0; i < cycles; ++i) {
      for (Dim dup = 0; dup < dups; ++dup) {
        bases[static_cast<std::size_t>(i * dups + dup)] =
            cycle_base(plan, wave + i, dup);
      }
    }
    const Count items = ceil_div(cycles, kBlockCycles) * n_ac;
    parallel_slots(pool, std::min(slots, items), items,
                   [&](Count slot, Count item) {
                     run_item(cycles, slot, item);
                   });
    for (Count i = 0; i < cycles; ++i) {
      const std::optional<WindowBase>* base = bases.data() + i * dups;
      for (Dim ac = 0; ac < n_ac; ++ac) {
        // Column bindings are identical across the AR tiles of one AC
        // band; commit with the last tile's bindings.
        const double* read_out =
            acc.data() +
            (((i / kBlockCycles) * n_ac + ac) * kBlockCycles +
             i % kBlockCycles) *
                acc_cols;
        for (const ColBinding& cb : plan.tile(n_ar - 1, ac).cols) {
          if (const std::optional<WindowBase>& b = base[cb.dup]) {
            sink.commit(cb.oc, b->wy + cb.win_py, b->wx + cb.win_px,
                        read_out[cb.col]);
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
