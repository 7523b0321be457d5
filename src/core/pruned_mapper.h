#pragma once

/// @file pruned_mapper.h
/// A pruned variant of Algorithm 1 that returns the identical optimum
/// while visiting far fewer candidates (an engineering extension; the
/// paper's scan is already cheap, but a deployment flow optimizing
/// thousands of layers appreciates the ~10x).
///
/// It is the window-scan engine (core/window_scan.h) with `prune` set:
/// the row and column infeasibility horizons, valid under every
/// objective, and the N_PW lower-bound cut, which fires only under an
/// objective declaring `cycle_lower_bound_admissible()` (under
/// energy/EDP the mapper degrades to the feasibility prunes and stays
/// exact).  Exactness is property-tested against VwSdkMapper over a
/// layer/array sweep; the trace records only the candidates evaluated.

#include "core/mapping_decision.h"

namespace vwsdk {

/// Exact-result pruned implementation of Algorithm 1.
class PrunedVwSdkMapper final : public Mapper {
 public:
  using Mapper::map;

  std::string name() const override { return "vw-sdk-pruned"; }
  MappingDecision map(const MappingContext& context) const override;
};

}  // namespace vwsdk
