#include "core/window_scan.h"

#include <vector>

#include "common/thread_pool.h"
#include "core/search_trace.h"

namespace vwsdk {

MappingDecision scan_windows(const MappingContext& context,
                             const WindowScan& scan) {
  context.validate();
  const Objective& objective = context.scoring();
  const ConvShape& shape = context.shape;
  const ArrayGeometry& geometry = context.geometry;

  MappingDecision decision;
  decision.objective = objective.name();
  decision.shape = shape;
  decision.geometry = geometry;
  // Step 1 of Algorithm 1: initialize with im2col.
  decision.cost = scan.initial(shape, geometry);
  decision.score = objective.score(shape, geometry, decision.cost);

  // `candidate_score` is the objective score of a feasible candidate
  // (0.0 for infeasible ones); precomputed by the caller so the pooled
  // path can evaluate scores in parallel too.
  const auto consider = [&](const ParallelWindow& pw,
                            const CycleCost& candidate,
                            double candidate_score) {
    // The strict comparison keeps the first minimum.
    const bool improved =
        candidate.feasible &&
        objective.better(candidate_score, decision.score);
    if (context.trace != nullptr) {
      context.trace->record(SearchStep{pw, candidate.feasible,
                                       candidate.feasible ? candidate.total
                                                          : 0,
                                       improved, candidate_score});
    }
    if (improved) {
      decision.cost = candidate;
      decision.score = candidate_score;
    }
  };

  // Steps 2-16 over the pool: costs may be *computed* out of order, but
  // the reduction walks enumerate_windows' list, which is this scan's
  // order.
  if (!scan.prune && context.pool != nullptr && context.pool->size() > 1) {
    const std::vector<ParallelWindow> windows =
        enumerate_windows(shape, /*include_kernel=*/false);
    const std::vector<CycleCost> costs =
        window_costs(shape, geometry, windows, scan.cost, context.pool);
    const std::vector<double> scores =
        score_costs(objective, shape, geometry, costs, *context.pool);
    for (std::size_t i = 0; i < windows.size(); ++i) {
      consider(windows[i], costs[i], scores[i]);
    }
    return decision;
  }

  // Steps 2-16 streamed, one candidate at a time.
  const bool cycle_bound =
      scan.prune && objective.cycle_lower_bound_admissible();
  const auto fits = [&](const ParallelWindow& pw) {
    return pw.area() <= geometry.rows &&
           windows_in_pw(shape, pw) <= geometry.cols;
  };
  for (Dim h = shape.kernel_h; h <= shape.padded_h(); h += shape.stride_h) {
    // Prunes 1 and 2 across heights: the narrowest window only grows.
    if (scan.prune && !fits(ParallelWindow{shape.kernel_w, h})) {
      break;
    }
    for (Dim w = shape.kernel_w; w <= shape.padded_w();
         w += shape.stride_w) {
      if (w == shape.kernel_w && h == shape.kernel_h) {
        continue;  // the im2col initialization covers the kernel window
      }
      const ParallelWindow pw{w, h};
      // Prunes 1 and 2 across widths: wider windows only grow.
      if (scan.prune && !fits(pw)) {
        break;
      }
      // Prune 3: cycles >= N_PW.
      if (cycle_bound &&
          num_parallel_windows(shape, pw) >= decision.cost.total) {
        continue;
      }
      const CycleCost candidate = scan.cost(shape, geometry, pw);
      consider(pw, candidate,
               candidate.feasible
                   ? objective.score(shape, geometry, candidate)
                   : 0.0);
    }
  }
  return decision;
}

}  // namespace vwsdk
