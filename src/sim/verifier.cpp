#include "sim/verifier.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "mapping/plan_builder.h"
#include "tensor/gemm_backend.h"
#include "tensor/tensor_ops.h"

namespace vwsdk {

Tensord reference_convolution(const MappingPlan& plan, const Tensord& ifm,
                              const Tensord& weights,
                              const ExecutionOptions& options,
                              ConvWorkspace* workspace) {
  ConvConfig config;
  config.stride_w = plan.shape.stride_w;
  config.stride_h = plan.shape.stride_h;
  config.pad_w = plan.shape.pad_w;
  config.pad_h = plan.shape.pad_h;
  if (resolve_ref_backend(options.ref_backend) == "scalar") {
    return conv2d_direct(ifm, weights, config);
  }
  return conv2d_gemm(ifm, weights, config, workspace);
}

namespace {

/// The one summary line: "<what>: EXACT match (max_abs_err=e), cycles
/// executed/analytic (match)".
std::string summary_line(const std::string& what,
                         const VerificationReport& report) {
  return cat(what, ": ", report.exact_match ? "EXACT match" : "mismatch",
             " (max_abs_err=", report.max_abs_error, "), cycles ",
             report.executed_cycles, "/", report.analytic_cycles,
             report.cycles_match ? " (match)" : " (MISMATCH)");
}

/// Deterministic integer (ifm, weights) for `shape`, drawn ifm first.
std::pair<Tensord, Tensord> random_tensors(const ConvShape& shape,
                                           std::uint64_t seed,
                                           int magnitude) {
  Rng rng(seed);
  Tensord ifm =
      Tensord::feature_map(shape.in_channels, shape.ifm_h, shape.ifm_w);
  Tensord weights = Tensord::weights(shape.out_channels, shape.in_channels,
                                     shape.kernel_h, shape.kernel_w);
  fill_random_int(ifm, rng, magnitude);
  fill_random_int(weights, rng, magnitude);
  return {std::move(ifm), std::move(weights)};
}

/// One group's step: run `plan` on the crossbars, compute the reference
/// and compare.  Keeps the executed result for the caller's OFM.
VerificationReport run_group(const MappingPlan& plan, const Tensord& ifm,
                             const Tensord& weights,
                             const ExecutionOptions& options,
                             ConvWorkspace* workspace,
                             ExecutionResult& executed) {
  executed = execute_plan(plan, ifm, weights, options);
  const Tensord reference =
      reference_convolution(plan, ifm, weights, options, workspace);
  return verify_execution(plan, executed, reference);
}

}  // namespace

VerificationReport verify_execution(const MappingPlan& plan,
                                    const ExecutionResult& executed,
                                    const Tensord& reference) {
  VerificationReport report;
  report.executed_cycles = executed.cycles;
  report.analytic_cycles = plan.cost.total;
  report.cycles_match = report.executed_cycles == report.analytic_cycles;
  report.programmed_cells = executed.programmed_cells;
  report.max_abs_error = max_abs_diff(executed.ofm, reference);
  report.exact_match = exactly_equal(executed.ofm, reference);
  report.summary = summary_line(cat("mapping ", plan.cost.to_string()),
                                report);
  return report;
}

VerificationReport verify_mapping(const MappingPlan& plan, const Tensord& ifm,
                                  const Tensord& weights,
                                  const ExecutionOptions& options) {
  ExecutionResult executed;
  return run_group(plan, ifm, weights, options, nullptr, executed);
}

VerificationReport verify_mapping_random(const MappingPlan& plan,
                                         std::uint64_t seed, int magnitude,
                                         const ExecutionOptions& options) {
  const auto [ifm, weights] = random_tensors(plan.shape, seed, magnitude);
  return verify_mapping(plan, ifm, weights, options);
}

bool NetworkVerifyResult::all_verified() const {
  for (const LayerVerification& layer : layers) {
    if (!layer.report.exact_match || !layer.report.cycles_match) {
      return false;
    }
  }
  return true;
}

LayerRun run_layer(const ConvLayerDesc& layer, const Mapper& mapper,
                   const ArrayGeometry& geometry, const Tensord& ifm,
                   const Tensord& weights, const ExecutionOptions& options,
                   ConvWorkspace* workspace) {
  // The groups are identical, so one mapping and one plan serve them all.
  const ConvShape shape = ConvShape::from_layer(layer.one_group());
  LayerRun run;
  run.verification.layer = layer;
  run.verification.decision = mapper.map(shape, geometry);
  const CycleCost& cost = run.verification.decision.cost;
  const MappingPlan plan = build_plan_for_cost(shape, geometry, cost);

  const Dim groups = layer.groups;
  if (groups > 1) {
    // The layer-level OFM the groups scatter into; a dense layer takes
    // its executed OFM by move instead.
    run.ofm = Tensord::feature_map(layer.out_channels, layer.ofm_h(),
                                   layer.ofm_w());
  }
  VerificationReport& report = run.verification.report;
  for (Dim g = 0; g < groups; ++g) {
    // A dense layer's single group IS the layer: no slicing.
    Tensord sliced_ifm;
    Tensord sliced_weights;
    const Tensord* group_ifm = &ifm;
    const Tensord* group_weights = &weights;
    if (groups > 1) {
      sliced_ifm = slice_channels(ifm, g * shape.in_channels,
                                  shape.in_channels);
      sliced_weights = slice_outer(weights, g * shape.out_channels,
                                   shape.out_channels);
      group_ifm = &sliced_ifm;
      group_weights = &sliced_weights;
    }
    ExecutionResult executed;
    const VerificationReport group = run_group(
        plan, *group_ifm, *group_weights, options, workspace, executed);
    if (g == 0) {
      report = group;
    } else {
      report.exact_match = report.exact_match && group.exact_match;
      report.max_abs_error = std::max(report.max_abs_error,
                                      group.max_abs_error);
      report.executed_cycles += group.executed_cycles;
      report.analytic_cycles += group.analytic_cycles;
      report.cycles_match = report.cycles_match && group.cycles_match;
      report.programmed_cells += group.programmed_cells;
    }
    run.activity.accumulate(executed.activity);
    if (groups > 1) {
      write_channels(run.ofm, executed.ofm, g * shape.out_channels);
    } else {
      run.ofm = std::move(executed.ofm);
    }
  }
  if (groups > 1) {
    report.summary = summary_line(
        cat(groups, " groups x [", cost.to_string(), "]"), report);
  }
  return run;
}

NetworkVerifyResult verify_network(const Network& network,
                                   const Mapper& mapper,
                                   const ArrayGeometry& geometry,
                                   std::uint64_t seed,
                                   const ExecutionOptions& options) {
  NetworkVerifyResult result;
  result.network_name = network.name();
  result.algorithm = mapper.name();
  // Resolve once: an unknown backend fails before any layer runs, and
  // the report names the canonical backend whatever selected it.
  result.backend = resolve_ref_backend(options.ref_backend);
  result.geometry = geometry;
  result.seed = seed;
  ExecutionOptions resolved = options;
  resolved.ref_backend = result.backend;

  // One reference scratch buffer spans every layer, as in run_pipeline:
  // it holds one im2col panel of at most 128 windows per worker, so
  // keeping it between layers costs little however many windows a
  // layer has (19 MB on VGG-13 with 4 workers).
  ConvWorkspace workspace;
  const std::vector<ConvLayerDesc>& layers = network.layers();
  result.layers.reserve(layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    // Grouped layers verify one group: the groups are identical.
    const ConvLayerDesc group = layers[i].one_group();
    const auto [ifm, weights] =
        random_tensors(ConvShape::from_layer(group), seed + i, 4);
    LayerVerification lv =
        run_layer(group, mapper, geometry, ifm, weights, resolved,
                  &workspace)
            .verification;
    lv.layer = layers[i];
    result.layers.push_back(std::move(lv));
  }
  return result;
}

}  // namespace vwsdk
