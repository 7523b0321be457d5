#include "sim/executor.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"
#include "core/mapping_decision.h"
#include "mapping/plan_builder.h"
#include "sim/latency_model.h"
#include "tensor/conv_ref.h"
#include "tensor/tensor_ops.h"

namespace vwsdk {
namespace {

const ArrayGeometry kSmall{64, 32};

MappingPlan sample_plan() {
  const ConvShape shape = ConvShape::square(8, 3, 9, 40);
  return build_plan_for_cost(shape, kSmall, vw_cost(shape, kSmall, {4, 3}));
}

std::pair<Tensord, Tensord> sample_tensors(const ConvShape& shape,
                                           std::uint64_t seed) {
  Rng rng(seed);
  Tensord ifm =
      Tensord::feature_map(shape.in_channels, shape.ifm_h, shape.ifm_w);
  Tensord weights = Tensord::weights(shape.out_channels, shape.in_channels,
                                     shape.kernel_h, shape.kernel_w);
  fill_random_int(ifm, rng, 4);
  fill_random_int(weights, rng, 4);
  return {std::move(ifm), std::move(weights)};
}

TEST(Executor, CycleCountMatchesAnalyticModel) {
  const MappingPlan plan = sample_plan();
  const auto [ifm, weights] = sample_tensors(plan.shape, 1);
  const ExecutionResult result = execute_plan(plan, ifm, weights);
  EXPECT_EQ(result.cycles, plan.cost.total);
  EXPECT_EQ(result.activity.cycles, plan.cost.total);
}

TEST(Executor, ActivityMatchesAnalyticActivity) {
  const MappingPlan plan = sample_plan();
  const auto [ifm, weights] = sample_tensors(plan.shape, 2);
  const ExecutionResult result = execute_plan(plan, ifm, weights);
  const EnergyReport analytic =
      analytic_activity(plan.shape, plan.geometry, plan.cost);
  EXPECT_EQ(result.activity.cycles, analytic.cycles);
  EXPECT_EQ(result.activity.row_activations, analytic.row_activations);
  EXPECT_EQ(result.activity.col_reads, analytic.col_reads);
  EXPECT_EQ(result.activity.cell_macs, analytic.cell_macs);
}

TEST(Executor, AnalyticActivityMatchesForIm2colAndSmd) {
  std::vector<MappingPlan> plans;
  for (const ConvShape& shape :
       {ConvShape::square(6, 3, 8, 10),    // im2col with AR split
        ConvShape::square(6, 3, 1, 2)}) {  // SMD with duplicates
    plans.push_back(
        build_plan_for_cost(shape, kSmall, im2col_cost(shape, kSmall)));
    plans.push_back(
        build_plan_for_cost(shape, kSmall, smd_cost(shape, kSmall)));
  }
  // SDK's entire-channel 8x8 window of a 7x7 layer split at element
  // granularity over AR = 3 slices (IC_t = IC, so a per-channel tile walk
  // runs out of channels after the first slice).
  const ConvShape k7 = ConvShape::square(32, 7, 24, 64);
  const ArrayGeometry paper{512, 512};
  plans.push_back(
      build_plan_for_cost(k7, paper, sdk_cost(k7, paper, {8, 8})));
  ASSERT_EQ(plans.back().cost.ar_cycles, 3);
  ASSERT_EQ(plans.back().cost.total, 507);

  for (const MappingPlan& plan : plans) {
    const auto [ifm, weights] = sample_tensors(plan.shape, 3);
    const ExecutionResult result = execute_plan(plan, ifm, weights);
    const EnergyReport analytic =
        analytic_activity(plan.shape, plan.geometry, plan.cost);
    EXPECT_EQ(result.activity.row_activations, analytic.row_activations);
    EXPECT_EQ(result.activity.col_reads, analytic.col_reads);
    EXPECT_EQ(result.activity.cell_macs, analytic.cell_macs);
  }
}

TEST(Executor, ProgrammedCellsReported) {
  const MappingPlan plan = sample_plan();
  const auto [ifm, weights] = sample_tensors(plan.shape, 4);
  const ExecutionResult result = execute_plan(plan, ifm, weights);
  EXPECT_EQ(result.programmed_cells, plan.programmed_cells());
}

TEST(Executor, RejectsMismatchedTensors) {
  const MappingPlan plan = sample_plan();
  const auto [ifm, weights] = sample_tensors(plan.shape, 5);
  const Tensord wrong_ifm = Tensord::feature_map(2, 8, 8);
  EXPECT_THROW(execute_plan(plan, wrong_ifm, weights), InvalidArgument);
  const Tensord wrong_weights = Tensord::weights(40, 9, 5, 5);
  EXPECT_THROW(execute_plan(plan, ifm, wrong_weights), InvalidArgument);
}

TEST(Executor, ValidatesPlanUnlessDisabled) {
  MappingPlan plan = sample_plan();
  plan.cost.total += 1;  // corrupt: validator must object
  const auto [ifm, weights] = sample_tensors(plan.shape, 6);
  EXPECT_THROW(execute_plan(plan, ifm, weights), InternalError);
  // With validation off the executor itself notices the cycle mismatch at
  // the end (still InternalError, different path).
  ExecutionOptions options;
  options.validate_plan = false;
  EXPECT_THROW(execute_plan(plan, ifm, weights, options), InternalError);
}

TEST(Executor, QuantizedAdcDegradesGracefully) {
  const ConvShape shape = ConvShape::square(6, 3, 2, 3);
  const MappingPlan plan =
      build_plan_for_cost(shape, kSmall, vw_cost(shape, kSmall, {4, 4}));
  const auto [ifm, weights] = sample_tensors(shape, 7);
  const Tensord reference = conv2d_direct(ifm, weights);

  ExecutionOptions coarse;
  coarse.adc = ConverterModel(4, -256.0, 256.0);
  const ExecutionResult coarse_result =
      execute_plan(plan, ifm, weights, coarse);
  const double coarse_err = max_abs_diff(coarse_result.ofm, reference);
  EXPECT_GT(coarse_err, 0.0);  // 4 bits over +-256: step 32, real error

  ExecutionOptions fine;
  fine.adc = ConverterModel(16, -256.0, 256.0);
  const ExecutionResult fine_result = execute_plan(plan, ifm, weights, fine);
  const double fine_err = max_abs_diff(fine_result.ofm, reference);
  EXPECT_LT(fine_err, coarse_err);
}

TEST(Executor, NoiseGrowsWithSigma) {
  const ConvShape shape = ConvShape::square(6, 3, 2, 3);
  const MappingPlan plan =
      build_plan_for_cost(shape, kSmall, vw_cost(shape, kSmall, {4, 4}));
  const auto [ifm, weights] = sample_tensors(shape, 8);
  const Tensord reference = conv2d_direct(ifm, weights);

  double last_err = 0.0;
  for (const double sigma : {0.0, 0.01, 0.1}) {
    ExecutionOptions options;
    options.noise.multiplicative_sigma = sigma;
    options.noise_seed = 99;
    const ExecutionResult result = execute_plan(plan, ifm, weights, options);
    const double err = max_abs_diff(result.ofm, reference);
    if (sigma == 0.0) {
      EXPECT_EQ(err, 0.0);
    } else {
      EXPECT_GT(err, last_err);
    }
    last_err = err;
  }
}

TEST(Executor, NoiseIsDeterministicPerSeed) {
  const ConvShape shape = ConvShape::square(6, 3, 2, 3);
  const MappingPlan plan =
      build_plan_for_cost(shape, kSmall, vw_cost(shape, kSmall, {4, 4}));
  const auto [ifm, weights] = sample_tensors(shape, 9);
  ExecutionOptions options;
  options.noise.additive_sigma = 0.05;
  options.noise_seed = 123;
  const ExecutionResult a = execute_plan(plan, ifm, weights, options);
  const ExecutionResult b = execute_plan(plan, ifm, weights, options);
  EXPECT_TRUE(exactly_equal(a.ofm, b.ofm));
}

TEST(Executor, ZeroInputYieldsZeroOutput) {
  const MappingPlan plan = sample_plan();
  const Tensord ifm = Tensord::feature_map(plan.shape.in_channels,
                                           plan.shape.ifm_h,
                                           plan.shape.ifm_w);
  auto [unused_ifm, weights] = sample_tensors(plan.shape, 10);
  const ExecutionResult result = execute_plan(plan, ifm, weights);
  for (const double v : result.ofm.data()) {
    EXPECT_EQ(v, 0.0);
  }
}

TEST(Executor, NoisyOverlappingWindowsExecute) {
  // Clamped parallel windows overlap; under noise they read different
  // noisy copies of the kernel, so their recomputations may disagree.
  const ConvShape shape = ConvShape::square(10, 1, 8, 16);
  const ArrayGeometry geometry{256, 256};
  const MappingPlan plan = build_plan_for_cost(
      shape, geometry, make_mapper("vw-sdk")->map(shape, geometry).cost);
  const auto [ifm, weights] = sample_tensors(shape, 7);
  ExecutionOptions options;
  options.noise.multiplicative_sigma = 0.05;
  options.noise_seed = 7;
  ExecutionResult result;
  ASSERT_NO_THROW(result = execute_plan(plan, ifm, weights, options));
  EXPECT_GT(max_abs_diff(result.ofm, conv2d_direct(ifm, weights)), 0.0);
}

/// FNV-1a (64 bit) over the bit patterns of a tensor's values.
std::uint64_t fnv1a(const Tensord& tensor) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const double value : tensor.data()) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (bits >> shift) & 0xffU;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

TEST(Executor, NoisyQuantizedOutputIsPinned) {
  // Noise plus a quantizing ADC make the output depend on every detail
  // of the schedule: which noisy tile computes each output, the ADC per
  // AR partial sum, the accumulation order, and which overlapping window
  // commits last.  The digests pin all of it.
  const ConvShape clamped = ConvShape::square(9, 3, 4, 6);
  const ConvShape small = ConvShape::square(6, 3, 1, 2);
  const ConvShape k7 = ConvShape::square(32, 7, 24, 64);
  const ArrayGeometry paper{512, 512};
  struct Case {
    MappingPlan plan;
    std::uint64_t digest;
  };
  const std::vector<Case> cases = {
      // SDK 4x4 windows over a 7x7 window grid: the last base clamps.
      {build_plan_for_cost(clamped, kSmall,
                           sdk_cost(clamped, kSmall, {4, 4})),
       0xaaffedd97842566dULL},
      // SDK 8x8 windows split at element granularity over AR = 3.
      {build_plan_for_cost(k7, paper, sdk_cost(k7, paper, {8, 8})),
       0x25dd4cfe318b0358ULL},
      // SMD with an idle duplicate block in the final cycle.
      {build_plan_for_cost(small, kSmall, smd_cost(small, kSmall)),
       0xbc3cd525da3908e5ULL},
  };
  ASSERT_EQ(cases[0].plan.kind, PlanKind::kWindowed);
  ASSERT_EQ(cases[1].plan.kind, PlanKind::kWindowedSplit);
  ASSERT_EQ(cases[2].plan.kind, PlanKind::kSmd);

  ExecutionOptions options;
  options.noise.multiplicative_sigma = 0.05;
  options.noise_seed = 77;
  options.adc = ConverterModel(6, -512.0, 512.0);
  for (const Case& c : cases) {
    const auto [ifm, weights] = sample_tensors(c.plan.shape, 11);
    const ExecutionResult result =
        execute_plan(c.plan, ifm, weights, options);
    EXPECT_EQ(fnv1a(result.ofm), c.digest) << c.plan.shape.to_string();
  }
}

TEST(Executor, ElementSplitOverlapsKeepTheLastWriterWithoutNoise) {
  // SDK's 6x6 window on an 8x8 layer splits each window's 324 rows at
  // element granularity over AR = 6 tiles, and the two clamped bases per
  // axis overlap.  Each window's taps fall into the AR tiles at different
  // elements, so on real-valued tensors an overlapping recomputation may
  // round differently: the last writer stands, as under noise, and the
  // output still matches the reference to rounding.
  const ConvShape shape = ConvShape::square(8, 3, 9, 40);
  const MappingPlan plan =
      build_plan_for_cost(shape, kSmall, sdk_cost(shape, kSmall, {6, 6}));
  ASSERT_EQ(plan.kind, PlanKind::kWindowedSplit);
  Rng rng(5);
  Tensord ifm =
      Tensord::feature_map(shape.in_channels, shape.ifm_h, shape.ifm_w);
  Tensord weights = Tensord::weights(shape.out_channels, shape.in_channels,
                                     shape.kernel_h, shape.kernel_w);
  fill_random_real(ifm, rng, -1.0, 1.0);
  fill_random_real(weights, rng, -1.0, 1.0);
  ExecutionResult result;
  ASSERT_NO_THROW(result = execute_plan(plan, ifm, weights));
  EXPECT_LT(max_abs_diff(result.ofm, conv2d_direct(ifm, weights)), 1e-12);
}

bool same_activity(const EnergyReport& a, const EnergyReport& b) {
  return a.cycles == b.cycles && a.row_activations == b.row_activations &&
         a.col_reads == b.col_reads && a.cell_macs == b.cell_macs;
}

TEST(Executor, IdenticalAtAnyPoolSize) {
  // One plan of each kind, each sized past the executor's inline cutoff
  // so the pool runs it; the im2col plan spans several waves of blocks
  // and the element-split plan fans out over 20 AC bands.
  const ConvShape windowed = ConvShape::square(18, 3, 8, 12);
  const ConvShape split = ConvShape::square(8, 3, 9, 40);
  const ConvShape dense = ConvShape::square(28, 3, 8, 16);
  const ConvShape smd = ConvShape::square(20, 3, 2, 4);
  const std::vector<MappingPlan> plans = {
      build_plan_for_cost(windowed, kSmall,
                          vw_cost(windowed, kSmall, {4, 3})),
      build_plan_for_cost(split, kSmall, sdk_cost(split, kSmall, {6, 6})),
      build_plan_for_cost(dense, kSmall, im2col_cost(dense, kSmall)),
      build_plan_for_cost(smd, kSmall, smd_cost(smd, kSmall)),
  };
  ASSERT_EQ(plans[0].kind, PlanKind::kWindowed);
  ASSERT_EQ(plans[1].kind, PlanKind::kWindowedSplit);
  ASSERT_EQ(plans[2].kind, PlanKind::kIm2colDense);
  ASSERT_EQ(plans[3].kind, PlanKind::kSmd);
  ASSERT_GT(plans[2].total_cycles(), 512);

  std::vector<ExecutionOptions> conditions(3);
  conditions[1].noise.multiplicative_sigma = 0.05;
  conditions[1].noise_seed = 13;
  conditions[2] = conditions[1];
  conditions[2].adc = ConverterModel(6, -64.0, 64.0);

  ThreadPool one(1);
  ThreadPool two(2);
  ThreadPool four(4);
  for (const MappingPlan& plan : plans) {
    Rng rng(21);
    Tensord ifm = Tensord::feature_map(plan.shape.in_channels,
                                       plan.shape.ifm_h, plan.shape.ifm_w);
    Tensord weights =
        Tensord::weights(plan.shape.out_channels, plan.shape.in_channels,
                         plan.shape.kernel_h, plan.shape.kernel_w);
    fill_random_real(ifm, rng, -2.0, 2.0);
    fill_random_real(weights, rng, -2.0, 2.0);
    for (const ExecutionOptions& options : conditions) {
      const ExecutionResult base =
          execute_plan(plan, ifm, weights, options, one);
      for (ThreadPool* pool : {&two, &four}) {
        const ExecutionResult other =
            execute_plan(plan, ifm, weights, options, *pool);
        EXPECT_EQ(fnv1a(other.ofm), fnv1a(base.ofm))
            << plan.shape.to_string() << " on " << pool->size()
            << " workers";
        EXPECT_TRUE(same_activity(other.activity, base.activity));
        EXPECT_EQ(other.programmed_cells, base.programmed_cells);
      }
    }
  }
}

}  // namespace
}  // namespace vwsdk
