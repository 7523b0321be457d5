#include "core/pruned_mapper.h"

#include "core/mapper_registry.h"
#include "core/window_scan.h"

namespace vwsdk {

MappingDecision PrunedVwSdkMapper::map(const MappingContext& context) const {
  MappingDecision decision = scan_windows(
      context, WindowScan{im2col_cost, vw_cost, /*prune=*/true});
  decision.algorithm = name();
  return decision;
}

namespace detail {

void register_pruned_mapper(MapperRegistry& registry) {
  registry.add(MapperInfo{
      "vw-sdk-pruned",
      {"pruned"},
      "Algorithm 1 with exactness-preserving search-space prunes",
      MapperCapabilities{/*objective_aware=*/true, /*parallel_search=*/false,
                         /*exhaustive=*/false, /*grouped=*/true},
      50,
      []() { return std::make_unique<PrunedVwSdkMapper>(); }});
}

}  // namespace detail

}  // namespace vwsdk
