#pragma once

/// @file executor.h
/// Functional execution of a MappingPlan on crossbar arrays.
///
/// The executor programs one Crossbar per (AR, AC) tile, then walks the
/// schedule in one loop for every plan kind.  A cycle is one base of the
/// parallel-window grid (an SMD cycle: one chunk of D windows), and every
/// cycle of a tile drives the same programmed array, so the loop takes
/// blocks of cycles and runs each tile's block as one batched MVM: it
/// gathers the input-feature-map values the tile's row bindings name,
/// computes the block on the crossbar (ADC model applied per read-out),
/// accumulates partial sums across AR tiles in ascending order, and
/// scatters the column read-outs into the output feature map in
/// schedule order.  Clamped parallel windows overlap and recompute some
/// outputs: without device noise the recomputation must reproduce the
/// committed value exactly (InternalError otherwise); with noise the
/// overlapping windows read different noisy copies of the kernel and the
/// last computed value stands.
///
/// This is the strongest form of evidence a mapping can get in software:
/// if the plan (placement, schedule, tiling) is wrong in any way, the
/// produced OFM will not match the reference convolution.

#include <string>

#include "mapping/mapping_plan.h"
#include "pim/adc.h"
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

  /// Reference backend verification compares the execution against: a
  /// BackendRegistry name or alias; empty resolves through the
  /// `VWSDK_REF_BACKEND` environment variable, then "gemm" (see
  /// tensor/exec_backend.h).  The "scalar" oracle is always available.
  std::string ref_backend;
};

/// What an execution produced and what it cost.
struct ExecutionResult {
  Tensord ofm;                ///< (1, OC, OH, OW)
  Cycles cycles = 0;          ///< computing cycles executed
  EnergyReport activity{};    ///< rows driven / cols read / cell MACs
  Count programmed_cells = 0; ///< total cells programmed across tiles
};

/// Execute `plan` on the given input and weights.
/// @param ifm     (1, IC, I_h, I_w), matching plan.shape.
/// @param weights (OC, IC, K_h, K_w), matching plan.shape.
ExecutionResult execute_plan(const MappingPlan& plan, const Tensord& ifm,
                             const Tensord& weights,
                             const ExecutionOptions& options = {});

}  // namespace vwsdk
