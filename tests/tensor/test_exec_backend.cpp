#include "tensor/exec_backend.h"

#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "nn/model_zoo.h"
#include "tensor/gemm_backend.h"
#include "tensor/tensor_ops.h"

namespace vwsdk {
namespace {

/// RAII: restore the prior value of an environment variable.
class EnvGuard {
 public:
  explicit EnvGuard(std::string name) : name_(std::move(name)) {
    if (const char* prev = std::getenv(name_.c_str())) {
      had_value_ = true;
      saved_ = prev;
    }
  }
  ~EnvGuard() {
    if (had_value_) {
      setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_value_ = false;
  std::string saved_;
};

TEST(BackendResolution, BuiltinsAndAliasesResolve) {
  // The oracle lists first, the fast default second.
  EXPECT_EQ(ref_backend_names(), "scalar, gemm");
  EXPECT_EQ(resolve_ref_backend("scalar"), "scalar");
  EXPECT_EQ(resolve_ref_backend("gemm"), "gemm");
  // Aliases and case-insensitive lookup.
  EXPECT_EQ(resolve_ref_backend("direct"), "scalar");
  EXPECT_EQ(resolve_ref_backend("im2col-gemm"), "gemm");
  EXPECT_EQ(resolve_ref_backend("  GEMM "), "gemm");
  EXPECT_EQ(resolve_ref_backend("DIRECT"), "scalar");
}

TEST(BackendResolution, UnknownNameThrowsListingKnown) {
  try {
    resolve_ref_backend(" no-such-backend ");
    FAIL() << "expected NotFound";
  } catch (const NotFound& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown execution backend 'no-such-backend'; known: "
              "scalar, gemm");
  }
}

TEST(BackendResolution, ExplicitThenEnvThenDefault) {
  EnvGuard guard("VWSDK_REF_BACKEND");
  unsetenv("VWSDK_REF_BACKEND");
  EXPECT_EQ(resolve_ref_backend(), "gemm");
  EXPECT_EQ(resolve_ref_backend("scalar"), "scalar");
  EXPECT_EQ(resolve_ref_backend(" Direct "), "scalar");  // alias, trimmed

  ASSERT_EQ(setenv("VWSDK_REF_BACKEND", "scalar", 1), 0);
  EXPECT_EQ(resolve_ref_backend(), "scalar");
  // An explicit request wins over the environment.
  EXPECT_EQ(resolve_ref_backend("gemm"), "gemm");
  // Empty environment value falls through to the default.
  ASSERT_EQ(setenv("VWSDK_REF_BACKEND", "", 1), 0);
  EXPECT_EQ(resolve_ref_backend(), "gemm");
  // Unknown names throw, explicit or from the environment.
  ASSERT_EQ(setenv("VWSDK_REF_BACKEND", "bogus", 1), 0);
  EXPECT_THROW(resolve_ref_backend(), NotFound);
  EXPECT_THROW(resolve_ref_backend("bogus"), NotFound);
}

/// One parity case: both backends on the same integer tensors must
/// produce bitwise-identical OFMs.
struct ParityCase {
  Dim ih = 0, iw = 0, kh = 0, kw = 0, ic = 0, oc = 0;
  ConvConfig config{};

  std::string label() const {
    return cat(ih, "x", iw, " k", kh, "x", kw, " ic", ic, " oc", oc, " s",
               config.stride_h, "x", config.stride_w, " p", config.pad_h,
               "x", config.pad_w);
  }
};

void expect_parity(const ParityCase& c, ThreadPool& pool,
                   ConvWorkspace* workspace, std::uint64_t seed) {
  Rng rng(seed);
  Tensord ifm = Tensord::feature_map(c.ic, c.ih, c.iw);
  Tensord weights = Tensord::weights(c.oc, c.ic, c.kh, c.kw);
  fill_random_int(ifm, rng, 3);
  fill_random_int(weights, rng, 3);
  const Tensord oracle = conv2d_direct(ifm, weights, c.config);
  const Tensord fast = conv2d_gemm(ifm, weights, c.config, workspace, pool);
  EXPECT_TRUE(exactly_equal(oracle, fast)) << c.label();
}

/// Shrink a zoo layer to a Debug-friendly parity case that keeps its
/// interesting structure: the kernel, stride, and padding are preserved
/// exactly; the spatial extent is capped at kernel + 9 (still multiple
/// windows per axis, still exercises every padding row); the per-group
/// channel counts are capped at 24 (full-size zoo layers reach billions
/// of MACs -- minutes of scalar time per layer in Debug -- without
/// covering any additional backend code path).
ParityCase capped_case(const ConvLayerDesc& layer) {
  ParityCase c;
  c.kh = layer.kernel_h;
  c.kw = layer.kernel_w;
  c.ih = std::min(layer.ifm_h, static_cast<Dim>(layer.kernel_h + 9));
  c.iw = std::min(layer.ifm_w, static_cast<Dim>(layer.kernel_w + 9));
  c.ic = std::min(layer.group_in_channels(), Dim{24});
  c.oc = std::min(layer.group_out_channels(), Dim{24});
  c.config = layer.config;
  return c;
}

// gemm vs scalar on (the capped per-group sub-convolution of) every
// distinct layer shape in the model zoo -- stride, padding, grouped and
// depthwise layers included, which is exactly the shape population the
// verification paths run.
TEST(BackendParity, EveryZooLayerShape) {
  ConvWorkspace workspace;  // shared across cases, like the pipeline
  std::set<std::string> seen;
  std::uint64_t seed = 100;
  for (const std::string& model : model_names()) {
    const Network network = model_by_name(model);
    for (const ConvLayerDesc& layer : network.layers()) {
      const ParityCase c = capped_case(layer);
      if (!seen.insert(c.label()).second) {
        continue;  // networks share layer shapes; test each once
      }
      expect_parity(c, shared_pool(), &workspace, seed++);
    }
  }
  EXPECT_GE(seen.size(), 10u);
}

// The stride/pad/kernel sandwich the zoo does not cover, workspace
// shared across wildly different shapes to prove resize correctness.
TEST(BackendParity, StridePadKernelSandwich) {
  ConvWorkspace workspace;
  std::uint64_t seed = 500;
  for (const Dim kernel : {1, 3, 5}) {
    for (const Dim stride : {1, 2, 3}) {
      for (const Dim pad : {0, 1, 2}) {
        ParityCase c;
        c.ih = 11;
        c.iw = 13;  // non-square
        c.kh = kernel;
        c.kw = kernel;
        c.ic = 6;
        c.oc = 8;
        c.config.stride_h = stride;
        c.config.stride_w = stride;
        c.config.pad_h = pad;
        c.config.pad_w = pad;
        expect_parity(c, shared_pool(), &workspace, seed++);
      }
    }
  }
  // Asymmetric stride/padding, rectangular kernel.
  ParityCase c;
  c.ih = 14;
  c.iw = 9;
  c.kh = 3;
  c.kw = 5;
  c.ic = 5;
  c.oc = 7;
  c.config.stride_h = 2;
  c.config.stride_w = 1;
  c.config.pad_h = 0;
  c.config.pad_w = 2;
  expect_parity(c, shared_pool(), &workspace, seed);
}

// The im2col+GEMM backend with its default config, scratch and pool.
TEST(Im2colConv, MatchesDirectConvExactly) {
  Rng rng(77);
  Tensord ifm = Tensord::feature_map(3, 7, 6);
  Tensord w = Tensord::weights(5, 3, 3, 3);
  fill_random_int(ifm, rng, 4);
  fill_random_int(w, rng, 4);
  const Tensord direct = conv2d_direct(ifm, w);
  const Tensord lowered = conv2d_gemm(ifm, w);
  EXPECT_TRUE(exactly_equal(direct, lowered));
}

struct Im2colCase {
  Dim ih, iw, k, ic, oc, stride, pad;
};

/// Prints the case as, e.g., ifm7x9_k3_ic2_oc3_s1_p1; ctest's discovered
/// test names end in it in place of the case index.
void PrintTo(const Im2colCase& c, std::ostream* os) {
  *os << "ifm" << c.ih << "x" << c.iw << "_k" << c.k << "_ic" << c.ic
      << "_oc" << c.oc << "_s" << c.stride << "_p" << c.pad;
}

class Im2colEquivalence : public ::testing::TestWithParam<Im2colCase> {};

// The gemm backend must agree bitwise with the direct oracle on the same
// integer tensors -- the reference's core contract.
TEST_P(Im2colEquivalence, AgreesWithDirect) {
  const Im2colCase& c = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(c.ih * 31 + c.k));
  Tensord ifm = Tensord::feature_map(c.ic, c.ih, c.iw);
  Tensord w = Tensord::weights(c.oc, c.ic, c.k, c.k);
  fill_random_int(ifm, rng, 3);
  fill_random_int(w, rng, 3);
  ConvConfig config;
  config.stride_w = c.stride;
  config.stride_h = c.stride;
  config.pad_w = c.pad;
  config.pad_h = c.pad;
  const Tensord direct = conv2d_direct(ifm, w, config);
  EXPECT_TRUE(exactly_equal(direct, conv2d_gemm(ifm, w, config)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Im2colEquivalence,
    ::testing::Values(Im2colCase{5, 5, 3, 1, 1, 1, 0},
                      Im2colCase{8, 8, 3, 4, 8, 1, 0},
                      Im2colCase{7, 9, 3, 2, 3, 1, 1},
                      Im2colCase{9, 9, 3, 2, 2, 2, 0},
                      Im2colCase{6, 6, 5, 3, 2, 1, 2},
                      Im2colCase{10, 7, 1, 3, 4, 1, 0},
                      Im2colCase{12, 12, 7, 1, 2, 2, 3}));

// Grouped execution the way the pipeline runs it: slice each group's
// channels, convolve through both backends (gemm reusing one workspace
// across groups), scatter into the layer OFM, compare layer-level.
TEST(BackendParity, GroupedAndDepthwiseSlices) {
  ConvWorkspace workspace;
  std::uint64_t seed = 900;
  for (const Dim groups : {2, 4, 8}) {  // 8 groups of 1 ic = depthwise
    const Dim ic = 8, oc = 8, image = 9, kernel = 3;
    const Dim group_ic = ic / groups, group_oc = oc / groups;
    Rng rng(seed++);
    Tensord ifm = Tensord::feature_map(ic, image, image);
    Tensord weights = Tensord::weights(oc, group_ic, kernel, kernel);
    fill_random_int(ifm, rng, 3);
    fill_random_int(weights, rng, 3);
    Tensord via_scalar = Tensord::feature_map(oc, image - kernel + 1,
                                              image - kernel + 1);
    Tensord via_gemm = via_scalar;
    for (Dim g = 0; g < groups; ++g) {
      const Tensord group_ifm = slice_channels(ifm, g * group_ic, group_ic);
      const Tensord group_weights = slice_outer(weights, g * group_oc,
                                                group_oc);
      write_channels(via_scalar, conv2d_direct(group_ifm, group_weights),
                     g * group_oc);
      write_channels(via_gemm,
                     conv2d_gemm(group_ifm, group_weights, ConvConfig{},
                                 &workspace),
                     g * group_oc);
    }
    EXPECT_TRUE(exactly_equal(via_scalar, via_gemm))
        << groups << " groups";
  }
}

// Bitwise determinism across thread counts: each output row is
// computed wholly by one worker in ascending-k order, so the pool size
// must not change a single bit.  The case is sized past the backend's
// inline cutoff so the pool actually runs.
TEST(GemmBackend, DeterministicAcrossThreadCounts) {
  Rng rng(4242);
  Tensord ifm = Tensord::feature_map(8, 16, 16);
  Tensord weights = Tensord::weights(16, 8, 3, 3);
  fill_random_int(ifm, rng, 3);
  fill_random_int(weights, rng, 3);
  const ConvConfig config;

  ThreadPool one(1);
  ThreadPool four(4);
  ThreadPool sixteen(16);
  EXPECT_EQ(one.size(), 1);
  EXPECT_EQ(four.size(), 4);
  EXPECT_EQ(sixteen.size(), 16);
  const Tensord base = conv2d_gemm(ifm, weights, config, nullptr, one);
  EXPECT_TRUE(exactly_equal(
      base, conv2d_gemm(ifm, weights, config, nullptr, four)));
  EXPECT_TRUE(exactly_equal(
      base, conv2d_gemm(ifm, weights, config, nullptr, sixteen)));
  // ...and identical to the oracle, threads notwithstanding.
  EXPECT_TRUE(exactly_equal(base, conv2d_direct(ifm, weights, config)));
}

// The streamed lowering at every pool size: each case is sized past the
// inline cutoff, so pools of 2 and more fan (window stripe, OC block)
// items out, and each must equal the oracle bit for bit.
TEST(GemmBackend, BitwiseAcrossPoolSizesAndShapes) {
  struct PoolCase {
    const char* what;
    ParityCase shape;
  };
  auto square = [](Dim image, Dim kernel, Dim ic, Dim oc, Dim stride,
                   Dim pad) {
    ParityCase c;
    c.ih = image;
    c.iw = image;
    c.kh = kernel;
    c.kw = kernel;
    c.ic = ic;
    c.oc = oc;
    c.config.stride_h = stride;
    c.config.stride_w = stride;
    c.config.pad_h = pad;
    c.config.pad_w = pad;
    return c;
  };
  const std::vector<PoolCase> cases = {
      // 729 windows: five full stripes and a ragged tail of 89.
      {"ragged stripes", square(29, 3, 4, 8, 1, 0)},
      // 49 windows, less than one stripe: only OC blocks split the work.
      {"7x7 OFM", square(9, 3, 16, 32, 1, 0)},
      // 17x17 windows, so stripes also start mid output row.
      {"stride 2 pad 1", square(33, 3, 6, 12, 2, 1)},
      {"1x1 kernel", square(20, 1, 32, 16, 1, 0)},
      // 13 channels split into 4-channel blocks, the last of one.
      {"ragged OC block", square(9, 3, 32, 13, 1, 0)},
      {"ragged OC block, many stripes", square(26, 3, 8, 13, 1, 1)},
  };
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (const int threads : {1, 2, 3, 4, 16}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  std::uint64_t seed = 7000;
  for (const PoolCase& pc : cases) {
    for (const auto& pool : pools) {
      SCOPED_TRACE(cat(pc.what, " on ", pool->size(), " threads"));
      ConvWorkspace workspace;
      expect_parity(pc.shape, *pool, &workspace, seed);
    }
    ++seed;
  }
}

/// The naive product gemm_accumulate must equal: per output element,
/// its stored value plus one term at a time in ascending k, each a
/// rounded multiply then a rounded add.
void scalar_gemm(const std::vector<double>& a, const std::vector<double>& b,
                 Count ldb, std::vector<double>& c, Count ldc, Count m_begin,
                 Count m_end, Count k_total, Count n_total) {
  for (Count m = m_begin; m < m_end; ++m) {
    for (Count n = 0; n < n_total; ++n) {
      double sum = c[static_cast<std::size_t>(m * ldc + n)];
      for (Count k = 0; k < k_total; ++k) {
        sum = sum + a[static_cast<std::size_t>(m * k_total + k)] *
                        b[static_cast<std::size_t>(k * ldb + n)];
      }
      c[static_cast<std::size_t>(m * ldc + n)] = sum;
    }
  }
}

// Both instantiations of the MVM kernel against the scalar loop, by
// memcmp, on non-integer doubles (where a different association, an
// FMA contraction or a reordered tail changes the rounding) and nonzero
// initial C.  The shapes are ragged: row tails of the 4-row tile, every
// column tail of the 2-vector tile, k crossing the 256-row k-block, and
// B and C rows wider than the columns multiplied.
TEST(GemmKernel, BitwiseEqualToTheScalarLoop) {
  std::vector<std::pair<const char*, detail::GemmKernel>> kernels = {
      {"portable", detail::portable_gemm_kernel()}};
  if (detail::GemmKernel avx2 = detail::avx2_gemm_kernel()) {
    kernels.emplace_back("avx2", avx2);
  }
  Rng rng(9100);
  const auto random_doubles = [&rng](Count size) {
    std::vector<double> values(static_cast<std::size_t>(size));
    for (double& value : values) {
      value = rng.uniform_double(-2.0, 2.0);
    }
    return values;
  };
  for (const Count rows : {1, 3, 4, 5, 64}) {
    for (const Count cols : {1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 131}) {
      for (const Count depth : {1, 7, 255, 256, 257, 600}) {
        const Count ldb = cols + 3;
        const Count ldc = cols + 5;
        const std::vector<double> a = random_doubles(rows * depth);
        const std::vector<double> b = random_doubles(depth * ldb);
        const std::vector<double> c0 = random_doubles(rows * ldc);
        // All rows, and a range that starts inside the first tile.
        for (const Count m_begin : {Count{0}, std::min<Count>(2, rows - 1)}) {
          std::vector<double> expected = c0;
          scalar_gemm(a, b, ldb, expected, ldc, m_begin, rows, depth, cols);
          for (const auto& [name, kernel] : kernels) {
            std::vector<double> c = c0;
            kernel(a.data(), b.data(), ldb, c.data(), ldc, m_begin, rows,
                   depth, cols);
            EXPECT_EQ(std::memcmp(c.data(), expected.data(),
                                  c.size() * sizeof(double)),
                      0)
                << name << " kernel, rows " << m_begin << ".." << rows
                << ", " << depth << " deep, " << cols << " columns";
          }
        }
      }
    }
  }
  // gemm_accumulate runs one of the two.
  std::vector<double> a = random_doubles(5 * 300);
  std::vector<double> b = random_doubles(300 * 11);
  std::vector<double> expected = random_doubles(5 * 11);
  std::vector<double> c = expected;
  scalar_gemm(a, b, 11, expected, 11, 0, 5, 300, 11);
  gemm_accumulate(a.data(), b.data(), 11, c.data(), 11, 0, 5, 300, 11);
  EXPECT_EQ(std::memcmp(c.data(), expected.data(), c.size() * sizeof(double)),
            0);
}

// The scratch memory is one kernel_volume x stripe panel per worker
// slot, and no more panels than stripes: each stripe is lowered once,
// and the OC blocks of a layer with fewer stripes than workers share its
// panel.  A 16x larger OFM (12100 windows against 676) leaves it
// unchanged; a one-stripe 7x7 OFM and a two-stripe 12x12 one hold one
// and two panels.
TEST(GemmBackend, WorkspaceIsBoundedByStripesNotWindows) {
  ThreadPool pool(4);
  const Dim ic = 16, oc = 16, kernel = 3;
  const Count rows = Count{ic} * kernel * kernel;
  std::vector<std::size_t> sizes;
  for (const Dim image : {28, 112, 9, 14}) {
    SCOPED_TRACE(cat(image, "x", image, " IFM"));
    Rng rng(8000 + static_cast<std::uint64_t>(image));
    Tensord ifm = Tensord::feature_map(ic, image, image);
    Tensord weights = Tensord::weights(oc, ic, kernel, kernel);
    fill_random_int(ifm, rng, 3);
    fill_random_int(weights, rng, 3);
    ConvWorkspace workspace;
    EXPECT_TRUE(exactly_equal(
        conv2d_direct(ifm, weights),
        conv2d_gemm(ifm, weights, ConvConfig{}, &workspace, pool)));
    const Count windows = Count{image - kernel + 1} * (image - kernel + 1);
    const Count stripes = ceil_div(windows, kStripe);
    sizes.push_back(workspace.columns.size());
    EXPECT_LE(static_cast<Count>(sizes.back()),
              std::min<Count>(pool.size(), stripes) * rows *
                  std::min(kStripe, windows));
  }
  EXPECT_EQ(sizes[0], sizes[1]);
}

}  // namespace
}  // namespace vwsdk
