#pragma once

/// @file pipeline.h
/// Whole-network functional simulation on the PIM substrate.
///
/// Chains conv stages with ReLU and pooling in the digital periphery -- a
/// miniature end-to-end PIM inference.  Each conv stage is one call of
/// the verification driver run_layer (sim/verifier.h), which maps, builds,
/// executes and verifies it group by group; the pipeline itself only
/// checks that the stages chain, seeds the weights and applies the
/// post-ops.  Used by the custom-network example and integration tests;
/// the paper's full-size networks are evaluated analytically (their
/// functional execution is exact but needlessly slow at billions of MACs).

#include <string>
#include <vector>

#include "core/mapping_decision.h"
#include "sim/executor.h"
#include "sim/verifier.h"

namespace vwsdk {

/// One pipeline stage: a convolution plus optional digital post-ops.
struct StageSpec {
  ConvLayerDesc conv{};
  bool relu = true;
  Dim pool_window = 0;  ///< 0 = no pooling
  Dim pool_stride = 0;
};

/// Per-stage outcome inside a pipeline run.
struct StageResult {
  MappingDecision decision{};
  VerificationReport verification{};
  Shape4 output_shape{};
};

/// Whole-run outcome.
struct PipelineResult {
  Tensord output;             ///< final feature map
  Cycles total_cycles = 0;    ///< Σ of conv cycles over stages
  EnergyReport activity{};    ///< Σ of crossbar activity over stages
  bool all_verified = false;  ///< every stage matched its reference conv
  std::vector<StageResult> stages;

  std::string summary() const;
};

/// Run `stages` starting from `input`.  Weights for stage i are generated
/// deterministically from `weight_seed` + i (integer-valued, grouped
/// layout (OC, IC/G, K_h, K_w)).  Each stage's conv descriptor must match
/// the incoming tensor's shape (validated).  Every stage runs through
/// run_layer -- verified against the reference convolution
/// `options.ref_backend` names (see reference_convolution) -- before its
/// post-ops are applied; grouped stages (groups > 1, depthwise included)
/// run group by group on their channel slices there.  One backend
/// workspace is reused across all groups and stages.
PipelineResult run_pipeline(const std::vector<StageSpec>& stages,
                            const Tensord& input, const Mapper& mapper,
                            const ArrayGeometry& geometry,
                            const ExecutionOptions& options = {},
                            std::uint64_t weight_seed = 42);

}  // namespace vwsdk
