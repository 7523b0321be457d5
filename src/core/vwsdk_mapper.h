#pragma once

/// @file vwsdk_mapper.h
/// VW-SDK: the paper's Algorithm 1, generalized over search objectives.
///
/// The mapper is the plain configuration of the window-scan engine
/// (core/window_scan.h): im2col initialization, the channel-tiled cost
/// of Eq. (8) per candidate, and the first strictly better candidate
/// under the context's objective wins.  With the default cycles
/// objective this is exactly the paper's minimum-cycles scan, bit for
/// bit.
///
/// The first-minimum tie-break is observable in the paper's own results:
/// VGG-13 conv5 reports a 4x3 window although 4x4 ties it at 5832 cycles;
/// 4x3 is visited first.  Our tests pin this behaviour.

#include "core/mapping_decision.h"

namespace vwsdk {

/// The proposed variable-window SDK mapping algorithm.
class VwSdkMapper final : public Mapper {
 public:
  using Mapper::map;

  std::string name() const override { return "vw-sdk"; }

  /// Algorithm 1 under `context`: candidates are scored by
  /// `context.scoring()`, evaluated over `context.pool` when it has more
  /// than one worker (the decision and trace do not depend on it), and
  /// recorded into `context.trace` when one is given.
  MappingDecision map(const MappingContext& context) const override;
};

}  // namespace vwsdk
