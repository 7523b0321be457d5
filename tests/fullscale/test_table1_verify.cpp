/// Table I at full scale on the crossbar simulator: every layer of
/// ResNet-18 and VGG-13 is mapped on a 512x512 array by im2col, SDK and
/// VW-SDK, executed on seeded integer tensors and compared with the
/// reference convolution.  Every layer must match exactly, and each
/// network's executed cycles must sum to the paper's total.  No layer is
/// shrunk.  The suite takes seconds in a Release build, so it carries the
/// `fullscale` label (its directory) and unoptimized or sanitized builds
/// deselect it with `ctest -LE fullscale`.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/mapping_decision.h"
#include "nn/model_zoo.h"
#include "sim/verifier.h"

namespace vwsdk {
namespace {

struct PaperTotal {
  const char* mapper;
  Cycles cycles;
};

void verify_at_full_scale(const Network& net,
                          const std::vector<PaperTotal>& totals) {
  const ArrayGeometry geometry{512, 512};
  for (const PaperTotal& total : totals) {
    const NetworkVerifyResult result =
        verify_network(net, *make_mapper(total.mapper), geometry);
    ASSERT_EQ(static_cast<Count>(result.layers.size()), net.layer_count());
    Cycles executed = 0;
    for (const LayerVerification& layer : result.layers) {
      EXPECT_TRUE(layer.report.exact_match)
          << net.name() << " " << layer.layer.name << " under "
          << total.mapper << ": " << layer.report.summary;
      EXPECT_TRUE(layer.report.cycles_match)
          << net.name() << " " << layer.layer.name << " under "
          << total.mapper;
      executed += layer.report.executed_cycles;
    }
    EXPECT_EQ(executed, total.cycles) << net.name() << " " << total.mapper;
  }
}

TEST(FullScale, Resnet18MatchesTableOne) {
  verify_at_full_scale(resnet18_paper(),
                       {{"im2col", 20041}, {"sdk", 7240}, {"vw-sdk", 4294}});
}

TEST(FullScale, Vgg13MatchesTableOne) {
  verify_at_full_scale(
      vgg13_paper(),
      {{"im2col", 243736}, {"sdk", 114697}, {"vw-sdk", 77102}});
}

}  // namespace
}  // namespace vwsdk
