#pragma once

/// @file window_scan.h
/// Algorithm 1's window scan, written once for every mapper built on it.
///
/// Initialize the incumbent with the im2col mapping, then visit every
/// parallel-window shape (PW_w, PW_h) with PW_h = K_h .. I_h (outer loop)
/// and PW_w = K_w .. I_w (inner loop), skipping (K_w, K_h) itself (that is
/// the im2col initialization), and keep the *first* candidate strictly
/// better under the context's objective.  Candidate extents advance in
/// stride steps, so every candidate is admissible; with stride 1 this is
/// exactly Algorithm 1.
///
/// A WindowScan is the configuration that distinguishes the mappers:
/// `vw-sdk` is {im2col_cost, vw_cost}, `vw-sdk-pruned` adds `prune`, and
/// `vw-sdk-bitsliced` binds the bit-slicing-aware costs to its config.
/// Whatever the configuration, the engine records every evaluated
/// candidate into `context.trace` when one is given.

#include <functional>

#include "core/mapping_context.h"
#include "core/mapping_decision.h"

namespace vwsdk {

/// One configuration of the scan.
struct WindowScan {
  /// Step 1's incumbent: the im2col mapping under the scan's cost model.
  std::function<CycleCost(const ConvShape&, const ArrayGeometry&)> initial;

  /// The cost of one candidate window.
  WindowCostFn cost;

  /// Skip candidates that provably cannot win, keeping the result exact.
  /// The prunes are facts about vw_cost, so set this only with it:
  ///  1. Row horizon: once a window's area exceeds the rows (IC_t = 0),
  ///     every wider window does too -> end the row; if even width K_w
  ///     does, every taller height does too -> stop.
  ///  2. Column horizon: N_WP grows with width and height, so once
  ///     N_WP > cols (OC_t = 0) the same two breaks apply.
  ///  3. Lower bound: cycles >= N_PW, so a candidate whose N_PW already
  ///     meets the incumbent's cycles is skipped unevaluated.  Sound only
  ///     when the score is the cycle count, so it fires only under an
  ///     objective with `cycle_lower_bound_admissible()`.
  /// Pruned candidates are not recorded in the trace, and a pruned scan
  /// always runs sequentially.
  bool prune = false;
};

/// Run Algorithm 1 under `context` with `scan`'s costs.  The returned
/// decision's `algorithm` is left for the calling mapper to fill in.
///
/// With `context.pool` of more than one worker (and `prune` off) the
/// candidate costs and scores are computed over the pool, then reduced
/// sequentially in scan order, so the first-minimum tie-break and the
/// recorded trace are identical at any pool size.  Otherwise candidates
/// stream one at a time, with no whole-scan cost buffer.
MappingDecision scan_windows(const MappingContext& context,
                             const WindowScan& scan);

}  // namespace vwsdk
