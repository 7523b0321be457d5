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
/// tile's programmed cells per cycle, one packed block per column class:
/// each section reports the MACs its crossbars run over the layer's
/// convolution MACs, and checks exactly (machine-independent) that they
/// equal the execution's activity.cell_macs.  A plan runs more MACs
/// than the convolution only where clamped parallel windows overlap and
/// recompute outputs: both sections run 1.0x, where ResNet-18 conv2's
/// vw-sdk tiles used to multiply their whole bound blocks, 1.78x (the
/// shifted kernels' structural zeros), and VGG-13 conv1's im2col plan
/// binds 27 of 512 rows and 64 of 512 columns.
///
/// The reference-scaling section runs the gemm reference on VGG-13
/// conv2 (224x224, 3x3, 64 to 64: 50,176 windows) on one worker and on
/// the shared pool, and checks the two OFMs bitwise.  Its times are
/// reported, not gated: the floating-point throughput of a shared
/// virtual machine's vCPUs varies from run to run, so a pool speedup
/// bound would fail spuriously.  Each side runs once, which keeps the
/// section affordable in the unoptimized and sanitizer builds.
///
/// The MVM-kernel section reports which instantiation gemm_accumulate
/// runs (AVX2 or the portable two-double vectors) and its single-thread
/// throughput on two crossbar-sized tiles: a full 512x512 array and a
/// ragged 507x126 block, 64 cycles each.  Report-only, like the scaling
/// section; tests/tensor/test_exec_backend.cpp pins its results.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/mapping_decision.h"
#include "mapping/plan_builder.h"
#include "sim/executor.h"
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
/// ResNet-18 conv2 while its vw-sdk tiles still multiplied 1.8x the
/// layer's MACs (structural zeros of the shifted kernels) and 2.0-2.7
/// in Release once they multiply only programmed cells, and 1.3-4.1 on
/// VGG-13 conv1 im2col, where the per-cycle gather and commit weigh
/// against 27 x 64 MACs.  Computing the whole array every cycle on one
/// thread took 5.2 s on VGG-13 conv1, about 90x the reference.
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
  ConvWorkspace workspace;
  Tensord reference;
  const double gemm_ms = best_of_three_ms([&] {
    reference = conv2d_gemm(ifm, weights, ConvConfig(), &workspace,
                            shared_pool());
  });
  ExecutionResult executed;
  const double execute_ms =
      best_of_three_ms([&] { executed = execute_plan(plan, ifm, weights); });
  reporter.expect_true(
      cat(layer, ": crossbar OFM bitwise-identical to the gemm reference"),
      exactly_equal(executed.ofm, reference));
  Count crossbar_macs = 0;
  const Count cycles_per_tile =
      plan.total_cycles() / static_cast<Count>(plan.tiles.size());
  for (const ArrayTile& tile : plan.tiles) {
    crossbar_macs +=
        cycles_per_tile * program_tile(plan, tile, weights).block_cells();
  }
  reporter.expect_eq(cat(layer, ": crossbar MACs equal activity.cell_macs"),
                     executed.activity.cell_macs, crossbar_macs);
  const Count conv_macs =
      shape.num_windows() * shape.kernel_volume() * shape.out_channels;
  reporter.report_value(cat(layer, ": crossbar MACs over conv MACs (x)"),
                        static_cast<double>(crossbar_macs) /
                            static_cast<double>(conv_macs));
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

/// The "Reference scaling" section: the gemm reference on VGG-13 conv2,
/// one worker against shared_pool(), report-only (see file comment).
void reference_scaling_section(vwsdk::bench::JsonReporter& reporter) {
  using namespace vwsdk;
  reporter.section("Reference scaling -- VGG-13 conv2, gemm reference");
  const ConvShape shape = ConvShape::square(224, 3, 64, 64);
  Rng rng(2024);
  Tensord ifm =
      Tensord::feature_map(shape.in_channels, shape.ifm_h, shape.ifm_w);
  Tensord weights = Tensord::weights(shape.out_channels, shape.in_channels,
                                     shape.kernel_h, shape.kernel_w);
  fill_random_int(ifm, rng, 3);
  fill_random_int(weights, rng, 3);
  ThreadPool one_worker(1);
  ConvWorkspace workspace;
  Clock::time_point start = Clock::now();
  const Tensord serial = conv2d_gemm(ifm, weights, ConvConfig(), &workspace,
                                     one_worker);
  const double serial_ms = ms_since(start);
  start = Clock::now();
  const Tensord parallel = conv2d_gemm(ifm, weights, ConvConfig(),
                                       &workspace, shared_pool());
  const double parallel_ms = ms_since(start);
  reporter.expect_true(
      "VGG-13 conv2: gemm OFM identical on 1 worker and on the shared pool",
      exactly_equal(serial, parallel));
  reporter.report_value("VGG-13 conv2: shared pool workers",
                        shared_pool().size());
  reporter.report_value("VGG-13 conv2: gemm reference wall ms, 1 worker",
                        serial_ms);
  reporter.report_value("VGG-13 conv2: gemm reference wall ms, shared pool",
                        parallel_ms);
  reporter.report_value(
      "VGG-13 conv2: shared pool speedup over 1 worker (x)",
      parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0);
}

/// The "MVM kernel" section: the selected instantiation, and GMAC/s of
/// gemm_accumulate on the calling thread, report-only (see file comment).
void mvm_kernel_section(vwsdk::bench::JsonReporter& reporter) {
  using namespace vwsdk;
  reporter.section("MVM kernel -- gemm_accumulate on one thread");
  const bool avx2 = detail::avx2_gemm_kernel() != nullptr;
  std::cout << "  selected path: " << (avx2 ? "avx2" : "portable") << "\n";
  reporter.report_value("MVM kernel: doubles per vector (4 avx2, 2 portable)",
                        avx2 ? 4 : 2);
  struct Tile {
    Count m, k, n;
  };
  constexpr int kRepeats = 5;
  Rng rng(2025);
  const auto random_doubles = [&rng](Count size) {
    std::vector<double> values(static_cast<std::size_t>(size));
    for (double& value : values) {
      value = rng.uniform_double(-1.0, 1.0);
    }
    return values;
  };
  for (const Tile& t : {Tile{64, 512, 512}, Tile{64, 507, 126}}) {
    const std::vector<double> a = random_doubles(t.m * t.k);
    const std::vector<double> b = random_doubles(t.k * t.n);
    std::vector<double> c = random_doubles(t.m * t.n);
    const double ms = best_of_three_ms([&] {
      for (int i = 0; i < kRepeats; ++i) {
        gemm_accumulate(a.data(), b.data(), t.n, c.data(), t.n, 0, t.m, t.k,
                        t.n);
      }
    });
    const double macs = static_cast<double>(kRepeats * t.m * t.k * t.n);
    reporter.report_value(
        cat("MVM kernel: ", t.m, "x", t.k, "x", t.n,
            " tile GMAC/s, 1 thread (best of 3)"),
        ms > 0.0 ? macs / (ms * 1e6) : 0.0);
  }
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

  const Clock::time_point scalar_start = Clock::now();
  const Tensord oracle = conv2d_direct(ifm, weights, config);
  const double scalar_ms = ms_since(scalar_start);

  ConvWorkspace workspace;
  Tensord fast;
  const double gemm_ms = best_of_three_ms(
      [&] { fast = conv2d_gemm(ifm, weights, config, &workspace,
                               shared_pool()); });
  reporter.expect_true("gemm OFM bitwise-identical to the scalar oracle",
                       exactly_equal(oracle, fast));

  ThreadPool pool_1(1);
  ThreadPool pool_16(16);
  reporter.expect_true(
      "gemm OFM identical across 1 and 16 worker threads",
      exactly_equal(conv2d_gemm(ifm, weights, config, nullptr, pool_1),
                    conv2d_gemm(ifm, weights, config, nullptr, pool_16)));

  reporter.section("Wall-clock speedup");
  reporter.report_value("scalar reference wall ms", scalar_ms);
  reporter.report_value("gemm backend wall ms (best of 3)", gemm_ms);
  const double speedup = gemm_ms > 0.0 ? scalar_ms / gemm_ms : 0.0;
  reporter.report_value("gemm speedup over scalar (x)", speedup);
  reporter.expect_true(
      "gemm at least 5x faster than scalar on the largest verification "
      "case",
      speedup >= 5.0);

  mvm_kernel_section(reporter);
  reference_scaling_section(reporter);

  crossbar_section(reporter, "ResNet-18 conv2",
                   ConvShape::square(56, 3, 64, 64), "vw-sdk", 2022);
  crossbar_section(reporter, "VGG-13 conv1", ConvShape::square(224, 3, 3, 64),
                   "im2col", 2023);

  return reporter.finish();
}
