#include "sim/pipeline.h"

#include <utility>

#include "common/error.h"
#include "common/string_util.h"
#include "tensor/pooling.h"
#include "tensor/tensor_ops.h"

namespace vwsdk {

std::string PipelineResult::summary() const {
  std::string out = cat("pipeline: ", stages.size(), " stages, ",
                        total_cycles, " cycles, ",
                        all_verified ? "all stages verified" : "FAILURES",
                        "\n");
  for (std::size_t i = 0; i < stages.size(); ++i) {
    out += cat("  stage ", i + 1, " [", stages[i].decision.algorithm, " ",
               stages[i].decision.table_entry(), "] ",
               stages[i].verification.summary, "\n");
  }
  return out;
}

PipelineResult run_pipeline(const std::vector<StageSpec>& stages,
                            const Tensord& input, const Mapper& mapper,
                            const ArrayGeometry& geometry,
                            const ExecutionOptions& options,
                            std::uint64_t weight_seed) {
  VWSDK_REQUIRE(!stages.empty(), "pipeline needs at least one stage");

  PipelineResult result;
  result.output = input;
  result.all_verified = true;

  // One backend scratch buffer spans the whole run: the groups of a
  // stage (and often consecutive stages) share im2col dimensions, so
  // the reference backend reuses one allocation instead of growing a
  // fresh buffer per group.
  ConvWorkspace workspace;

  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageSpec& spec = stages[i];
    spec.conv.validate();
    const Shape4 expected{1, spec.conv.in_channels, spec.conv.ifm_h,
                          spec.conv.ifm_w};
    VWSDK_REQUIRE(result.output.shape() == expected,
                  cat("stage ", i + 1, " expects input ",
                      expected.to_string(), " but got ",
                      result.output.shape().to_string()));

    // Deterministic integer weights for this stage, grouped-conv layout
    // (OC, IC/G, K_h, K_w): output channel oc convolves input channels
    // [(oc / (OC/G)) * IC/G, ...) of its own group only.
    Rng rng(weight_seed + i);
    Tensord weights =
        Tensord::weights(spec.conv.out_channels,
                         spec.conv.group_in_channels(), spec.conv.kernel_h,
                         spec.conv.kernel_w);
    fill_random_int(weights, rng, 3);

    // Map, build, then run and verify every group (sim/verifier.h).
    LayerRun run = run_layer(spec.conv, mapper, geometry, result.output,
                             weights, options, &workspace);
    StageResult stage;
    stage.decision = std::move(run.verification.decision);
    stage.verification = std::move(run.verification.report);
    result.activity.accumulate(run.activity);
    result.all_verified =
        result.all_verified && stage.verification.exact_match &&
        stage.verification.cycles_match;
    result.total_cycles =
        result.total_cycles + stage.verification.executed_cycles;

    // Digital post-ops on the assembled layer-level feature map.
    Tensord feature_map = std::move(run.ofm);
    if (spec.relu) {
      feature_map = relu(feature_map);
    }
    if (spec.pool_window > 0) {
      VWSDK_REQUIRE(spec.pool_stride > 0,
                    cat("stage ", i + 1, ": pooling needs a stride"));
      feature_map =
          max_pool2d(feature_map, spec.pool_window, spec.pool_stride);
    }
    stage.output_shape = feature_map.shape();
    result.stages.push_back(std::move(stage));
    result.output = std::move(feature_map);
  }
  return result;
}

}  // namespace vwsdk
