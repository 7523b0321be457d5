#pragma once

/// @file bit_sliced_mapper.h
/// Algorithm 1 under the bit-slicing extension: the window-scan engine
/// (core/window_scan.h) with bit-slicing-aware costs.  The optimizer's
/// window choice *adapts* to the precision config -- with 1-bit cells
/// each output channel costs 8x the columns, pushing the optimum toward
/// windows with fewer positions (smaller N_WP).

#include "core/mapping_decision.h"
#include "mapping/bit_slicing.h"

namespace vwsdk {

/// VW-SDK search with bit-slicing costs.  With the default config this is
/// exactly VwSdkMapper, trace included (tested).  The search always
/// minimizes the bit-slicing-aware cycle count, sequentially (the scan
/// ignores `context.pool`); the winner is then scored under the context
/// objective.  The analytic activity model behind the energy/EDP
/// objectives does not know about slicing, so a non-cycles objective is
/// accepted only under the degenerate 1-slice/1-step config (where every
/// cost equals the plain model's and the score is exact); sliced configs
/// reject it with InvalidArgument rather than report a wrong energy
/// figure.  An array narrower than one weight's slices is rejected the
/// same way: no mapping of any window fits it.
class BitSlicedVwSdkMapper final : public Mapper {
 public:
  using Mapper::map;

  BitSlicedVwSdkMapper() = default;
  explicit BitSlicedVwSdkMapper(BitSlicingConfig config);

  std::string name() const override { return "vw-sdk-bitsliced"; }
  MappingDecision map(const MappingContext& context) const override;

  const BitSlicingConfig& config() const { return config_; }

 private:
  BitSlicingConfig config_{};
};

}  // namespace vwsdk
