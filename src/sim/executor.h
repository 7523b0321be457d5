#pragma once

/// @file executor.h
/// Functional execution of a MappingPlan on crossbar arrays.
///
/// The executor programs one Crossbar per (AR, AC) tile, storing one
/// packed block per column class of the tile (column_classes,
/// mapping/mapping_plan.h; pim/crossbar.h), then walks the schedule in
/// one loop for every plan kind.  A cycle is one base of the
/// parallel-window grid (an SMD cycle: one chunk of D windows), and every
/// cycle of a tile drives the same programmed array, so a block of
/// cycles on one AC band is one work item: per AR tile it gathers the
/// input-feature-map values the row bindings name, multiplies each
/// packed block once on its own rows' taps, and adds the read-outs (ADC
/// model applied per column) into the AR partial sums in ascending AR.
/// Execution thus costs each tile's programmed cells per cycle --
/// `activity.cell_macs` in all -- not the structural zeros of the
/// shifted kernels, nor the whole array.
///
/// Work items are independent, so waves of them fan out over a thread
/// pool -- by default `shared_pool()`, the pool the gemm reference
/// backend runs on -- with per-slot scratch allocated once per call.
/// Each wave then commits its column read-outs into the output feature
/// map in schedule order (cycle-major, AC-minor), fanned out by output
/// channel: a slot commits only its own block of channels, so no two
/// slots write one output and every output's writes keep their order.
/// The result, activity and programmed cells are therefore bitwise
/// identical at any pool size.  Clamped parallel windows overlap and recompute some
/// outputs: where every window sums an output's terms in the same
/// grouping (channel tiles, im2col, SMD) a noiseless recomputation must
/// reproduce the committed value exactly (InternalError otherwise);
/// element-split SDK tiles cut each window's taps at a different
/// element, and noisy tiles hold different copies of the kernel, so
/// there the last computed value stands.
///
/// This is the strongest form of evidence a mapping can get in software:
/// if the plan (placement, schedule, tiling) is wrong in any way, the
/// produced OFM will not match the reference convolution.

#include <string>

#include "common/thread_pool.h"
#include "mapping/mapping_plan.h"
#include "pim/adc.h"
#include "pim/crossbar.h"
#include "pim/energy_model.h"
#include "pim/noise.h"
#include "tensor/tensor.h"

namespace vwsdk {

/// Knobs of a functional execution.
struct ExecutionOptions {
  ConverterModel adc{};             ///< ideal by default
  NoiseConfig noise{};              ///< no device variation by default
  std::uint64_t noise_seed = 1;     ///< seed for the noise model
  bool validate_plan = true;        ///< run plan_validate first

  /// Reference backend verification compares the execution against:
  /// "scalar" or "gemm", or an alias ("direct", "im2col-gemm"); empty
  /// resolves through the `VWSDK_REF_BACKEND` environment variable, then
  /// "gemm" (see resolve_ref_backend, tensor/exec_backend.h).
  std::string ref_backend;
};

/// What an execution produced and what it cost.
struct ExecutionResult {
  Tensord ofm;                ///< (1, OC, OH, OW)
  Cycles cycles = 0;          ///< computing cycles executed
  EnergyReport activity{};    ///< rows driven / cols read / cell MACs
  Count programmed_cells = 0; ///< total cells programmed across tiles
};

/// The crossbar of `tile`: one packed block per column class inside the
/// block the tile's bindings span, programmed by the cell rule in
/// for_each_cell order (so noise draws follow that order; `noise` may be
/// null).  Rejects bindings outside the array or the layer, or naming an
/// SMD block the plan does not have: the schedule loop indexes by them.
/// Its block_cells() equal its programmed cells.
Crossbar program_tile(const MappingPlan& plan, const ArrayTile& tile,
                      const Tensord& weights, NoiseModel* noise = nullptr);

/// Execute `plan` on the given input and weights.  The work items fan
/// out over `pool`, by default the process-wide shared_pool() (tests pin
/// other sizes); never call this from a task running on `pool`.
/// @param ifm     (1, IC, I_h, I_w), matching plan.shape.
/// @param weights (OC, IC, K_h, K_w), matching plan.shape.
ExecutionResult execute_plan(const MappingPlan& plan, const Tensord& ifm,
                             const Tensord& weights,
                             const ExecutionOptions& options = {},
                             ThreadPool& pool = shared_pool());

}  // namespace vwsdk
