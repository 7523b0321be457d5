#include "core/exhaustive_mapper.h"

#include <vector>

#include "common/thread_pool.h"
#include "core/mapper_registry.h"

namespace vwsdk {

MappingDecision ExhaustiveMapper::map(const MappingContext& context) const {
  context.validate();
  const Objective& objective = context.scoring();
  const ConvShape& shape = context.shape;
  const ArrayGeometry& geometry = context.geometry;

  MappingDecision decision;
  decision.algorithm = name();
  decision.objective = objective.name();
  decision.shape = shape;
  decision.geometry = geometry;
  decision.cost = im2col_cost(shape, geometry);
  decision.score = objective.score(shape, geometry, decision.cost);

  // With a pool, candidate costs may be computed out of order; the
  // reduction is sequential in scan order so the im2col-first tie-break
  // matches the single-threaded oracle exactly.  Without one, costs
  // stream per candidate.
  const std::vector<ParallelWindow> windows =
      enumerate_windows(shape, /*include_kernel=*/true);

  const auto consider = [&](const CycleCost& candidate,
                            double candidate_score) {
    if (candidate.feasible &&
        objective.better(candidate_score, decision.score)) {
      decision.cost = candidate;
      decision.score = candidate_score;
    }
  };

  if (context.pool != nullptr && context.pool->size() > 1) {
    const std::vector<CycleCost> costs =
        window_costs(shape, geometry, windows, vw_cost, context.pool);
    const std::vector<double> scores =
        score_costs(objective, shape, geometry, costs, *context.pool);
    for (std::size_t i = 0; i < costs.size(); ++i) {
      consider(costs[i], scores[i]);
    }
  } else {
    for (const ParallelWindow& pw : windows) {
      const CycleCost candidate = vw_cost(shape, geometry, pw);
      consider(candidate,
               candidate.feasible
                   ? objective.score(shape, geometry, candidate)
                   : 0.0);
    }
  }
  return decision;
}

namespace detail {

void register_exhaustive_mapper(MapperRegistry& registry) {
  registry.add(MapperInfo{
      "exhaustive",
      {},
      "brute-force oracle over every admissible window (global optimum)",
      MapperCapabilities{/*objective_aware=*/true, /*parallel_search=*/true,
                         /*exhaustive=*/true, /*grouped=*/true},
      60,
      []() { return std::make_unique<ExhaustiveMapper>(); }});
}

}  // namespace detail

}  // namespace vwsdk
