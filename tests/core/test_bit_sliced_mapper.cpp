#include "core/bit_sliced_mapper.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/search_trace.h"
#include "core/vwsdk_mapper.h"

namespace vwsdk {
namespace {

const ArrayGeometry k512x512{512, 512};

TEST(BitSlicedMapper, DefaultConfigEqualsVwSdk) {
  const BitSlicedVwSdkMapper sliced;
  const VwSdkMapper plain;
  for (const ConvShape& shape :
       {ConvShape::square(56, 3, 128, 256), ConvShape::square(112, 7, 3, 64),
        ConvShape::square(7, 3, 512, 512)}) {
    EXPECT_EQ(sliced.map(shape, k512x512).cost.total,
              plain.map(shape, k512x512).cost.total)
        << shape.to_string();
  }
}

TEST(BitSlicedMapper, WindowAdaptsToSliceCount) {
  // With 1-bit cells (8 slices) every window position costs 8 columns, so
  // the optimizer should prefer windows with fewer positions than the
  // full-precision choice -- or at least never a more column-hungry one.
  BitSlicingConfig coarse;
  coarse.cell_bits = 1;
  const BitSlicedVwSdkMapper sliced(coarse);
  const VwSdkMapper plain;
  const ConvShape conv3 = ConvShape::square(28, 3, 128, 128);
  const MappingDecision sliced_decision = sliced.map(conv3, k512x512);
  const MappingDecision plain_decision = plain.map(conv3, k512x512);
  const Count sliced_nwp = windows_in_pw(conv3, sliced_decision.cost.window);
  const Count plain_nwp = windows_in_pw(conv3, plain_decision.cost.window);
  EXPECT_LE(sliced_nwp, plain_nwp);
  EXPECT_GE(sliced_decision.cost.total, plain_decision.cost.total);
}

TEST(BitSlicedMapper, NeverWorseThanBitSlicedIm2col) {
  BitSlicingConfig config;
  config.cell_bits = 2;
  config.dac_bits = 4;
  const BitSlicedVwSdkMapper mapper(config);
  for (const ConvShape& shape :
       {ConvShape::square(56, 3, 64, 64), ConvShape::square(14, 3, 256, 256),
        ConvShape::square(28, 3, 256, 512)}) {
    EXPECT_LE(mapper.map(shape, k512x512).cost.total,
              im2col_cost_bitsliced(shape, k512x512, config).total)
        << shape.to_string();
  }
}

TEST(BitSlicedMapper, DefaultConfigRecordsTheVwSdkTrace) {
  const ConvShape conv5 = ConvShape::square(56, 3, 128, 256);
  SearchTrace sliced_trace;
  MappingContext context{conv5, k512x512};
  context.trace = &sliced_trace;
  const MappingDecision sliced = BitSlicedVwSdkMapper().map(context);
  SearchTrace plain_trace;
  context.trace = &plain_trace;
  const MappingDecision plain = VwSdkMapper().map(context);
  EXPECT_EQ(sliced.cost, plain.cost);
  EXPECT_EQ(sliced.score, plain.score);

  ASSERT_EQ(sliced_trace.candidates_visited(), 54LL * 54 - 1);
  ASSERT_EQ(sliced_trace.steps().size(), plain_trace.steps().size());
  for (std::size_t i = 0; i < plain_trace.steps().size(); ++i) {
    const SearchStep& a = sliced_trace.steps()[i];
    const SearchStep& b = plain_trace.steps()[i];
    EXPECT_EQ(a.window, b.window) << "step " << i;
    EXPECT_EQ(a.feasible, b.feasible) << "step " << i;
    EXPECT_EQ(a.cycles, b.cycles) << "step " << i;
    EXPECT_EQ(a.improved, b.improved) << "step " << i;
    EXPECT_EQ(a.score, b.score) << "step " << i;
  }
}

TEST(BitSlicedMapper, RejectsArraysNarrowerThanOneWeight) {
  // 1-bit cells need 8 adjacent columns per weight: no window fits a
  // 4-column array, so the search refuses instead of returning an
  // infeasible decision with a max-cycles score.
  BitSlicingConfig coarse;
  coarse.cell_bits = 1;
  const BitSlicedVwSdkMapper mapper(coarse);
  const ConvShape shape = ConvShape::square(8, 3, 4, 6);
  EXPECT_THROW(mapper.map(shape, ArrayGeometry{64, 4}), InvalidArgument);
  // Eight columns hold one weight's slices.
  const MappingDecision decision = mapper.map(shape, ArrayGeometry{64, 8});
  EXPECT_TRUE(decision.cost.feasible);
}

TEST(BitSlicedMapper, MetadataAndName) {
  BitSlicingConfig config;
  config.cell_bits = 4;
  const BitSlicedVwSdkMapper mapper(config);
  EXPECT_EQ(mapper.name(), "vw-sdk-bitsliced");
  EXPECT_EQ(mapper.config().cell_bits, 4);
}

}  // namespace
}  // namespace vwsdk
