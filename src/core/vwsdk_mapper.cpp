#include "core/vwsdk_mapper.h"

#include "core/mapper_registry.h"
#include "core/window_scan.h"

namespace vwsdk {

MappingDecision VwSdkMapper::map(const MappingContext& context) const {
  MappingDecision decision =
      scan_windows(context, WindowScan{im2col_cost, vw_cost});
  decision.algorithm = name();
  return decision;
}

namespace detail {

void register_vwsdk_mapper(MapperRegistry& registry) {
  registry.add(MapperInfo{
      "vw-sdk",
      {"vwsdk"},
      "variable-window SDK search, Algorithm 1 (the paper's proposal)",
      MapperCapabilities{/*objective_aware=*/true, /*parallel_search=*/true,
                         /*exhaustive=*/false, /*grouped=*/true},
      40,
      []() { return std::make_unique<VwSdkMapper>(); }});
}

}  // namespace detail

}  // namespace vwsdk
