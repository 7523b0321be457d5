/// Execution-backend performance gate: the tiled im2col+GEMM
/// backend must beat the scalar oracle by at least 5x wall-clock on the
/// largest convolution the functional-verification paths actually run
/// (ResNet-18 conv2's 56x56 3x3 64-to-64 shape from Table I -- the
/// full-size VGG layers are evaluated analytically, never executed),
/// while staying bitwise identical on integer tensors.
///
/// Timing methodology: the scalar reference is timed once (it dominates
/// the bench wall time); the gemm backend takes the best of three runs
/// so a cold thread pool or scheduler hiccup cannot fail the gate
/// spuriously.  Parity and thread-count determinism are re-checked here
/// so the perf baseline also pins correctness.
///
/// The crossbar-execution sections time the simulator running a plan on
/// a 512x512 array through the shared MVM kernel, fanned out over the
/// same pool as the gemm reference, and check its OFM bitwise against
/// that reference.  The gate is machine-relative: execute_plan (best of
/// three) may take at most kMaxExecuteOverGemm times the gemm reference
/// (best of three) on the same layer.  Crossbar execution costs each
/// tile's bound rows x bound columns per cycle: on ResNet-18 conv2's
/// vw-sdk plan that is 1.8x the layer's MACs (the shifted kernels'
/// structural zeros), and on VGG-13 conv1's im2col plan (27 of 512 rows,
/// 64 of 512 columns bound) exactly the convolution's MACs instead of
/// the whole array's.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/mapping_decision.h"
#include "mapping/plan_builder.h"
#include "sim/executor.h"
#include "tensor/exec_backend.h"
#include "tensor/gemm_backend.h"
#include "tensor/tensor_ops.h"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Best of three wall-clock runs of `run`, in ms.
template <typename Fn>
double best_of_three_ms(Fn&& run) {
  double best = 0.0;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point start = Clock::now();
    run();
    const double ms = ms_since(start);
    best = i == 0 ? ms : std::min(best, ms);
  }
  return best;
}

/// Bound of the time gate: execute_plan over the gemm reference on the
/// same layer, both fanned out over the shared pool.  Measured on a
/// 4-vCPU VM (Release, and Debug under ASan and TSan): 1.2-2.5 on
/// ResNet-18 conv2, whose vw-sdk tiles hold 1.8x the layer's MACs
/// (structural zeros of the shifted kernels), and 1.3-4.1 on VGG-13
/// conv1 im2col, where the per-cycle gather and commit weigh against
/// 27 x 64 MACs.  Computing the whole array every cycle on one thread
/// took 5.2 s on VGG-13 conv1, about 90x the reference.
constexpr double kMaxExecuteOverGemm = 6.0;

/// One "Crossbar execution" section: `mapper`'s plan for `shape` on
/// 512x512, executed on seeded integer tensors and gated against the
/// gemm reference on the same layer.  `layer` names the section and
/// prefixes its check labels.
void crossbar_section(vwsdk::bench::JsonReporter& reporter,
                      const std::string& layer, const vwsdk::ConvShape& shape,
                      const std::string& mapper, std::uint64_t seed) {
  using namespace vwsdk;
  reporter.section(
      cat("Crossbar execution -- ", layer, " ", mapper, " plan, 512x512"));
  Rng rng(seed);
  Tensord ifm =
      Tensord::feature_map(shape.in_channels, shape.ifm_h, shape.ifm_w);
  Tensord weights = Tensord::weights(shape.out_channels, shape.in_channels,
                                     shape.kernel_h, shape.kernel_w);
  fill_random_int(ifm, rng, 3);
  fill_random_int(weights, rng, 3);
  const ArrayGeometry geometry{512, 512};
  const MappingPlan plan = build_plan_for_cost(
      shape, geometry, make_mapper(mapper)->map(shape, geometry).cost);
  const RefBackend& gemm = BackendRegistry::instance().get("gemm");
  ConvWorkspace workspace;
  Tensord reference;
  const double gemm_ms = best_of_three_ms([&] {
    reference = gemm.conv2d(ifm, weights, ConvConfig(), &workspace);
  });
  ExecutionResult executed;
  const double execute_ms =
      best_of_three_ms([&] { executed = execute_plan(plan, ifm, weights); });
  reporter.expect_true(
      cat(layer, ": crossbar OFM bitwise-identical to the gemm reference"),
      exactly_equal(executed.ofm, reference));
  reporter.report_value(cat(layer, ": gemm reference wall ms (best of 3)"),
                        gemm_ms);
  reporter.report_value(cat(layer, ": execute_plan wall ms (best of 3)"),
                        execute_ms);
  reporter.report_value(
      cat(layer, ": execute_plan ns per cycle"),
      execute_ms * 1e6 / static_cast<double>(executed.cycles));
  const double ratio = gemm_ms > 0.0 ? execute_ms / gemm_ms : 0.0;
  reporter.report_value(cat(layer, ": execute_plan over gemm reference (x)"),
                        ratio);
  reporter.expect_true(cat(layer, ": execute_plan at most ",
                           kMaxExecuteOverGemm,
                           "x the gemm reference on the same layer"),
                       ratio <= kMaxExecuteOverGemm);
}

}  // namespace

int main() {
  using namespace vwsdk;
  bench::JsonReporter reporter("bench_exec");

  reporter.section("Backend parity -- ResNet-18 conv2, integer tensors");
  Rng rng(2022);
  Tensord ifm = Tensord::feature_map(64, 56, 56);
  Tensord weights = Tensord::weights(64, 64, 3, 3);
  fill_random_int(ifm, rng, 3);
  fill_random_int(weights, rng, 3);
  const ConvConfig config;  // stride 1, pad 0 (the paper's convention)

  const BackendRegistry& registry = BackendRegistry::instance();
  const RefBackend& scalar = registry.get("scalar");
  const RefBackend& gemm = registry.get("gemm");

  const Clock::time_point scalar_start = Clock::now();
  const Tensord oracle = scalar.conv2d(ifm, weights, config, nullptr);
  const double scalar_ms = ms_since(scalar_start);

  ConvWorkspace workspace;
  Tensord fast;
  const double gemm_ms = best_of_three_ms(
      [&] { fast = gemm.conv2d(ifm, weights, config, &workspace); });
  reporter.expect_true("gemm OFM bitwise-identical to the scalar oracle",
                       exactly_equal(oracle, fast));

  const GemmBackend gemm_1(1);
  const GemmBackend gemm_16(16);
  reporter.expect_true(
      "gemm OFM identical across 1 and 16 worker threads",
      exactly_equal(gemm_1.conv2d(ifm, weights, config, nullptr),
                    gemm_16.conv2d(ifm, weights, config, nullptr)));

  reporter.section("Wall-clock speedup");
  reporter.report_value("scalar reference wall ms", scalar_ms);
  reporter.report_value("gemm backend wall ms (best of 3)", gemm_ms);
  const double speedup = gemm_ms > 0.0 ? scalar_ms / gemm_ms : 0.0;
  reporter.report_value("gemm speedup over scalar (x)", speedup);
  reporter.expect_true(
      "gemm at least 5x faster than scalar on the largest verification "
      "case",
      speedup >= 5.0);

  crossbar_section(reporter, "ResNet-18 conv2",
                   ConvShape::square(56, 3, 64, 64), "vw-sdk", 2022);
  crossbar_section(reporter, "VGG-13 conv1", ConvShape::square(224, 3, 3, 64),
                   "im2col", 2023);

  return reporter.finish();
}
