#include "core/bit_sliced_mapper.h"

#include "common/error.h"
#include "common/string_util.h"
#include "core/mapper_registry.h"
#include "core/window_scan.h"

namespace vwsdk {

BitSlicedVwSdkMapper::BitSlicedVwSdkMapper(BitSlicingConfig config)
    : config_(config) {
  config_.validate();
}

MappingDecision BitSlicedVwSdkMapper::map(
    const MappingContext& context) const {
  context.validate();
  const Objective& objective = context.scoring();
  // Energy/EDP scoring runs the analytic activity model, which does not
  // know about slicing: a sliced cost's AC accounting breaks its
  // invariants (negative residual columns).  With the degenerate
  // 1-slice/1-step config every cost equals the plain model's, so
  // objective scoring is sound; otherwise refuse loudly rather than
  // return a wrong energy figure.
  VWSDK_REQUIRE(objective.cycle_lower_bound_admissible() ||
                    (config_.slices() == 1 && config_.input_steps() == 1),
                cat("vw-sdk-bitsliced can score the '", objective.name(),
                    "' objective only with the default 1-slice/1-step "
                    "config (the activity model is slicing-unaware)"));
  VWSDK_REQUIRE(context.geometry.cols >= config_.slices(),
                cat("vw-sdk-bitsliced needs at least ", config_.slices(),
                    " array columns for one weight's slices; the array has ",
                    context.geometry.cols));

  // The scan minimizes bit-sliced cycles, sequentially; the caller's
  // trace still records it.
  MappingContext cycles_scan = context;
  cycles_scan.objective = &cycles_objective();
  cycles_scan.pool = nullptr;
  MappingDecision decision = scan_windows(
      cycles_scan,
      WindowScan{[this](const ConvShape& shape, const ArrayGeometry& geometry) {
                   return im2col_cost_bitsliced(shape, geometry, config_);
                 },
                 [this](const ConvShape& shape, const ArrayGeometry& geometry,
                        const ParallelWindow& pw) {
                   return vw_cost_bitsliced(shape, geometry, pw, config_);
                 }});
  decision.algorithm = name();
  decision.objective = objective.name();
  decision.score =
      objective.score(context.shape, context.geometry, decision.cost);
  return decision;
}

namespace detail {

void register_bit_sliced_mapper(MapperRegistry& registry) {
  registry.add(MapperInfo{
      "vw-sdk-bitsliced",
      {"bitsliced"},
      "Algorithm 1 with bit-slicing-aware costs (default 8-bit config)",
      MapperCapabilities{},
      70,
      []() { return std::make_unique<BitSlicedVwSdkMapper>(); }});
}

}  // namespace detail

}  // namespace vwsdk
