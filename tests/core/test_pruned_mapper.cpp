#include "core/pruned_mapper.h"

#include <vector>

#include <gtest/gtest.h>

#include "core/search_trace.h"
#include "core/vwsdk_mapper.h"

namespace vwsdk {
namespace {

struct PrunedCase {
  Dim image, kernel, ic, oc, rows, cols;
};

/// Prints the case as, e.g., ifm7_k3_ic512_oc512_a512x512; ctest's discovered
/// test names end in it in place of the case index.
void PrintTo(const PrunedCase& c, std::ostream* os) {
  *os << "ifm" << c.image << "_k" << c.kernel << "_ic" << c.ic << "_oc"
      << c.oc << "_a" << c.rows << "x" << c.cols;
}

class PrunedEquivalence : public ::testing::TestWithParam<PrunedCase> {};

TEST_P(PrunedEquivalence, SameOptimumAndSameWindowAsUnpruned) {
  const PrunedCase& c = GetParam();
  const ConvShape shape = ConvShape::square(c.image, c.kernel, c.ic, c.oc);
  const ArrayGeometry geometry{c.rows, c.cols};
  const MappingDecision pruned = PrunedVwSdkMapper().map(shape, geometry);
  const MappingDecision plain = VwSdkMapper().map(shape, geometry);
  EXPECT_EQ(pruned.cost.total, plain.cost.total);
  // Tie-breaking must also be preserved: same first-minimum window.
  EXPECT_EQ(pruned.cost.window, plain.cost.window);
  EXPECT_EQ(pruned.cost.ic_t, plain.cost.ic_t);
  EXPECT_EQ(pruned.cost.oc_t, plain.cost.oc_t);
}

INSTANTIATE_TEST_SUITE_P(
    LayerSweep, PrunedEquivalence,
    ::testing::Values(PrunedCase{224, 3, 3, 64, 512, 512},
                      PrunedCase{224, 3, 64, 64, 512, 512},
                      PrunedCase{56, 3, 128, 256, 512, 512},
                      PrunedCase{28, 3, 256, 512, 512, 512},
                      PrunedCase{7, 3, 512, 512, 512, 512},
                      PrunedCase{112, 7, 3, 64, 512, 512},
                      PrunedCase{56, 3, 64, 64, 128, 128},
                      PrunedCase{14, 3, 256, 256, 128, 256},
                      PrunedCase{13, 5, 12, 24, 128, 256},
                      PrunedCase{64, 3, 1, 1, 32, 32},
                      PrunedCase{9, 3, 2, 2048, 512, 512},
                      PrunedCase{16, 3, 1024, 16, 256, 128}));

TEST(PrunedMapper, ActuallyPrunes) {
  // On VGG-13 conv1 (224x224, tiny channels) the full scan is ~49k
  // candidates; the prunes must remove the overwhelming majority, and
  // the trace's last improvement is still the returned window.
  const ConvShape conv1 = ConvShape::square(224, 3, 3, 64);
  SearchTrace trace;
  MappingContext context{conv1, {512, 512}};
  context.trace = &trace;
  const MappingDecision decision = PrunedVwSdkMapper().map(context);
  const Count full_scan = 222LL * 222 - 1;
  EXPECT_GT(trace.candidates_visited(), 0);
  EXPECT_LT(trace.candidates_visited(), full_scan / 10);
  const std::vector<SearchStep> improvements = trace.improvements();
  ASSERT_FALSE(improvements.empty());
  EXPECT_EQ(improvements.back().window, decision.cost.window);
  EXPECT_EQ(improvements.back().cycles, decision.cost.total);
}

TEST(PrunedMapper, TraceIsSubsequenceOfFullScan) {
  // A pruned candidate can never improve the incumbent, so the pruned
  // trace is the full scan's trace with some steps dropped -- each kept
  // step identical, improvement flags included.
  const ConvShape conv5 = ConvShape::square(56, 3, 128, 256);
  SearchTrace pruned_trace;
  MappingContext context{conv5, {512, 512}};
  context.trace = &pruned_trace;
  const MappingDecision decision = PrunedVwSdkMapper().map(context);
  EXPECT_EQ(decision.cost.total, 5832);
  SearchTrace full_trace;
  context.trace = &full_trace;
  (void)VwSdkMapper().map(context);

  ASSERT_GT(pruned_trace.candidates_visited(), 0);
  EXPECT_LT(pruned_trace.candidates_visited(),
            full_trace.candidates_visited());
  std::size_t next = 0;
  for (const SearchStep& step : pruned_trace.steps()) {
    while (next < full_trace.steps().size() &&
           !(full_trace.steps()[next].window == step.window)) {
      ++next;
    }
    ASSERT_LT(next, full_trace.steps().size())
        << step.window.to_string() << " is not in the full scan's order";
    const SearchStep& full = full_trace.steps()[next];
    EXPECT_EQ(step.feasible, full.feasible);
    EXPECT_EQ(step.cycles, full.cycles);
    EXPECT_EQ(step.improved, full.improved);
    EXPECT_EQ(step.score, full.score);
  }
  EXPECT_EQ(pruned_trace.improvement_count(), full_trace.improvement_count());
}

TEST(PrunedMapper, AvailableViaFactory) {
  EXPECT_EQ(make_mapper("vw-sdk-pruned")->name(), "vw-sdk-pruned");
  EXPECT_EQ(make_mapper("pruned")->name(), "vw-sdk-pruned");
}

TEST(PrunedMapper, StridedLayersStillExact) {
  ConvShape strided = ConvShape::square(29, 3, 8, 16);
  strided.stride_w = 2;
  strided.stride_h = 2;
  const MappingDecision pruned = PrunedVwSdkMapper().map(strided, {96, 48});
  const MappingDecision plain = VwSdkMapper().map(strided, {96, 48});
  EXPECT_EQ(pruned.cost.total, plain.cost.total);
  EXPECT_EQ(pruned.cost.window, plain.cost.window);
}

}  // namespace
}  // namespace vwsdk
