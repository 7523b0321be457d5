#include "sim/verifier.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/error.h"
#include "core/serialize.h"
#include "core/vwsdk_mapper.h"
#include "mapping/plan_builder.h"
#include "tensor/tensor_ops.h"

namespace vwsdk {
namespace {

const ArrayGeometry kSmall{64, 32};

TEST(Verifier, ReportsExactMatchForIdealExecution) {
  const ConvShape shape = ConvShape::square(8, 3, 4, 6);
  const MappingPlan plan =
      build_plan_for_cost(shape, kSmall, vw_cost(shape, kSmall, {4, 3}));
  const VerificationReport report = verify_mapping_random(plan, 42);
  EXPECT_TRUE(report.exact_match);
  EXPECT_EQ(report.max_abs_error, 0.0);
  EXPECT_TRUE(report.cycles_match);
  EXPECT_GT(report.programmed_cells, 0);
  EXPECT_NE(report.summary.find("EXACT match"), std::string::npos);
}

TEST(Verifier, DeterministicForSeed) {
  const ConvShape shape = ConvShape::square(8, 3, 4, 6);
  const MappingPlan plan =
      build_plan_for_cost(shape, kSmall, vw_cost(shape, kSmall, {4, 3}));
  const VerificationReport a = verify_mapping_random(plan, 7);
  const VerificationReport b = verify_mapping_random(plan, 7);
  EXPECT_EQ(a.summary, b.summary);
}

TEST(Verifier, QuantizedAdcReportsBoundedError) {
  const ConvShape shape = ConvShape::square(8, 3, 4, 6);
  const MappingPlan plan =
      build_plan_for_cost(shape, kSmall, vw_cost(shape, kSmall, {4, 3}));
  ExecutionOptions options;
  options.adc = ConverterModel(8, -512.0, 512.0);
  const VerificationReport report = verify_mapping_random(plan, 42, 4,
                                                          options);
  // Quantization error is bounded by steps * AR accumulations.
  EXPECT_FALSE(report.exact_match);
  EXPECT_GT(report.max_abs_error, 0.0);
  EXPECT_LE(report.max_abs_error, 4 * 4.0 * plan.cost.ar_cycles);
  EXPECT_TRUE(report.cycles_match);
}

TEST(Verifier, ExplicitTensorsOverload) {
  const ConvShape shape = ConvShape::square(6, 3, 2, 3);
  const MappingPlan plan =
      build_plan_for_cost(shape, kSmall, im2col_cost(shape, kSmall));
  Rng rng(5);
  Tensord ifm = Tensord::feature_map(2, 6, 6);
  Tensord weights = Tensord::weights(3, 2, 3, 3);
  fill_random_int(ifm, rng, 2);
  fill_random_int(weights, rng, 2);
  const VerificationReport report = verify_mapping(plan, ifm, weights);
  EXPECT_TRUE(report.exact_match);
  EXPECT_EQ(report.analytic_cycles, plan.cost.total);
}

// The reference backend is selectable; on integer tensors the scalar
// oracle and the gemm engine must yield identical reports.
TEST(Verifier, BackendSelectionAgreesAcrossBackends) {
  const ConvShape shape = ConvShape::square(8, 3, 4, 6);
  const MappingPlan plan =
      build_plan_for_cost(shape, kSmall, vw_cost(shape, kSmall, {4, 3}));
  ExecutionOptions scalar_opts;
  scalar_opts.ref_backend = "scalar";
  ExecutionOptions gemm_opts;
  gemm_opts.ref_backend = "gemm";
  const VerificationReport via_scalar =
      verify_mapping_random(plan, 42, 4, scalar_opts);
  const VerificationReport via_gemm =
      verify_mapping_random(plan, 42, 4, gemm_opts);
  EXPECT_TRUE(via_scalar.exact_match);
  EXPECT_TRUE(via_gemm.exact_match);
  EXPECT_EQ(via_scalar.summary, via_gemm.summary);
}

TEST(Verifier, UnknownBackendThrowsNotFound) {
  const ConvShape shape = ConvShape::square(6, 3, 2, 3);
  const MappingPlan plan =
      build_plan_for_cost(shape, kSmall, im2col_cost(shape, kSmall));
  ExecutionOptions options;
  options.ref_backend = "no-such-backend";
  EXPECT_THROW(verify_mapping_random(plan, 1, 1, options), NotFound);
}

TEST(Verifier, ReferenceConvolutionReusesWorkspace) {
  const ConvShape shape = ConvShape::square(6, 3, 2, 3);
  const MappingPlan plan =
      build_plan_for_cost(shape, kSmall, im2col_cost(shape, kSmall));
  Rng rng(5);
  Tensord ifm = Tensord::feature_map(2, 6, 6);
  Tensord weights = Tensord::weights(3, 2, 3, 3);
  fill_random_int(ifm, rng, 2);
  fill_random_int(weights, rng, 2);
  ConvWorkspace workspace;
  const Tensord first = reference_convolution(plan, ifm, weights, {},
                                              &workspace);
  // A second call through the now-sized workspace must not perturb
  // the result.
  const Tensord second = reference_convolution(plan, ifm, weights, {},
                                               &workspace);
  EXPECT_TRUE(exactly_equal(first, second));
}

/// FNV-1a, 64 bit.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char byte : bytes) {
    hash = (hash ^ byte) * 0x100000001b3ULL;
  }
  return hash;
}

// Grouped layers verify one group's sub-convolution; the payload (the
// `vwsdk verify --format json` and serve `verify` result) is pinned byte
// for byte on a depthwise, a grouped (G = 4) and a dense layer.
TEST(Verifier, NetworkWithGroupedLayersIsPinned) {
  Network network("grouped-mix");
  ConvLayerDesc depthwise = make_conv_layer("dw", 10, 3, 8, 8);
  depthwise.groups = 8;
  network.add_layer(depthwise);
  ConvLayerDesc grouped = make_conv_layer("g4", 8, 3, 8, 12);
  grouped.groups = 4;
  network.add_layer(grouped);
  network.add_layer(make_conv_layer("dense", 6, 3, 12, 16));

  // The backend is named, not left to VWSDK_REF_BACKEND: the payload
  // records it.
  ExecutionOptions options;
  options.ref_backend = "gemm";
  const NetworkVerifyResult result = verify_network(
      network, VwSdkMapper(), ArrayGeometry{64, 64}, 42, options);
  EXPECT_TRUE(result.all_verified());
  ASSERT_EQ(result.layers.size(), 3u);
  EXPECT_EQ(result.layers[0].layer.groups, 8);
  EXPECT_EQ(result.layers[1].layer.groups, 4);
  EXPECT_EQ(fnv1a(to_json(result)), 0x67d5280db5f46587ULL)
      << to_json(result);
}

}  // namespace
}  // namespace vwsdk
