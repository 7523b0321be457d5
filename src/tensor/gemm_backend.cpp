#include "tensor/gemm_backend.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace vwsdk {

namespace {

// Cache blocking: the inner product walks kKc kernel rows of a kNc-wide
// column stripe, so the working set (one A sliver, one B block, one C
// stripe) stays L1/L2-resident.  The convolution also lowers its input
// one kNc-wide window stripe at a time, so a stripe of the im2col
// matrix is exactly one B block column.
constexpr Count kKc = 256;
constexpr Count kNc = kStripe;
// Output rows of the register tile.  With two four-double vectors per
// row the tile holds 8 accumulators, which with the two B vectors and a
// broadcast use 11 of the 16 AVX2 registers.
constexpr int kMr = 4;

// Below this many MACs the pool dispatch overhead dominates the
// arithmetic; run single-threaded in the calling thread instead (the
// result is bitwise identical either way, see gemm_backend.h).
constexpr Count kParallelCutoffMacs = Count{1} << 15;

// Work items the convolution aims to give each slot.  A layer with
// fewer window stripes than that splits its output channels into
// blocks, so a 7x7 OFM (one stripe) still keeps every worker busy.
constexpr Count kItemsPerSlot = 4;

// The vector types of the two instantiations: two doubles (SSE2 on
// x86-64, NEON on aarch64) and four (AVX2).  The kernel moves them to
// and from double arrays with memcpy, which compiles to unaligned
// vector loads and stores.
typedef double Vec2 __attribute__((vector_size(2 * sizeof(double))));
typedef double Vec4 __attribute__((vector_size(4 * sizeof(double))));

/// The register tile: C[m + r, n : n + Nv * lanes] += A[m + r, k] *
/// B[k, n : ...] for the R rows r < R and k ascending in [k0, k_end).
/// The tile's R x Nv vectors of C stay in registers for the whole k
/// range; per k the B vectors are loaded once and each A value is
/// broadcast.  Each lane takes its terms one at a time in ascending k as
/// `acc = acc + a * b`, a rounded multiply then a rounded add (never
/// fused, see gemm_backend.h), so the result is the scalar loop's bit for
/// bit.  V = double is the one-column tail.  Always inlined, so it
/// compiles for the instruction set of the instantiation that calls it.
template <typename V, int R, int Nv>
[[gnu::always_inline]] inline void accumulate_tile(
    const double* const (&a_rows)[R], double* const (&c_rows)[R],
    const double* b_col, Count ldb, Count k0, Count k_end) {
  constexpr Count kLanes = sizeof(V) / sizeof(double);
  V acc[R][Nv];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < Nv; ++v) {
      std::memcpy(&acc[r][v], c_rows[r] + v * kLanes, sizeof(V));
    }
  }
  const double* b_row = b_col + k0 * ldb;
  for (Count k = k0; k < k_end; ++k, b_row += ldb) {
    V b_vec[Nv];
    for (int v = 0; v < Nv; ++v) {
      std::memcpy(&b_vec[v], b_row + v * kLanes, sizeof(V));
    }
    for (int r = 0; r < R; ++r) {
      const double weight = a_rows[r][k];
      for (int v = 0; v < Nv; ++v) {
        acc[r][v] = acc[r][v] + weight * b_vec[v];
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < Nv; ++v) {
      std::memcpy(c_rows[r] + v * kLanes, &acc[r][v], sizeof(V));
    }
  }
}

/// Rows [m, m + R) of one (k-block, column stripe) pass: full tiles of
/// two V vectors, then at most one single-vector tile, then the last
/// columns one at a time.
template <typename V, int R>
[[gnu::always_inline]] inline void accumulate_rows(
    const double* a, const double* b, Count ldb, double* c, Count ldc,
    Count m, Count k0, Count k_end, Count n0, Count nb, Count k_total) {
  constexpr Count kLanes = sizeof(V) / sizeof(double);
  const double* a_rows[R];
  double* c_rows[R];
  for (int r = 0; r < R; ++r) {
    a_rows[r] = a + (m + r) * k_total;
    c_rows[r] = c + (m + r) * ldc + n0;
  }
  Count n = 0;
  const auto advance = [&](Count columns) {
    for (int r = 0; r < R; ++r) {
      c_rows[r] += columns;
    }
    n += columns;
  };
  for (; n + 2 * kLanes <= nb; advance(2 * kLanes)) {
    accumulate_tile<V, R, 2>(a_rows, c_rows, b + n0 + n, ldb, k0, k_end);
  }
  if (n + kLanes <= nb) {
    accumulate_tile<V, R, 1>(a_rows, c_rows, b + n0 + n, ldb, k0, k_end);
    advance(kLanes);
  }
  for (; n < nb; advance(1)) {
    accumulate_tile<double, R, 1>(a_rows, c_rows, b + n0 + n, ldb, k0,
                                  k_end);
  }
}

/// gemm_accumulate on vectors of type V: column stripes of kNc, k-blocks
/// of kKc, kMr rows per register tile and the last m % kMr rows one at
/// a time.
template <typename V>
[[gnu::always_inline]] inline void gemm_blocked(
    const double* a, const double* b, Count ldb, double* c, Count ldc,
    Count m_begin, Count m_end, Count k_total, Count n_total) {
  for (Count n0 = 0; n0 < n_total; n0 += kNc) {
    const Count nb = std::min(kNc, n_total - n0);
    for (Count k0 = 0; k0 < k_total; k0 += kKc) {
      const Count k_end = std::min(k0 + kKc, k_total);
      Count m = m_begin;
      for (; m + kMr <= m_end; m += kMr) {
        accumulate_rows<V, kMr>(a, b, ldb, c, ldc, m, k0, k_end, n0, nb,
                                k_total);
      }
      for (; m < m_end; ++m) {
        accumulate_rows<V, 1>(a, b, ldb, c, ldc, m, k0, k_end, n0, nb,
                              k_total);
      }
    }
  }
}

void gemm_portable(const double* a, const double* b, Count ldb, double* c,
                   Count ldc, Count m_begin, Count m_end, Count k_total,
                   Count n_total) {
  gemm_blocked<Vec2>(a, b, ldb, c, ldc, m_begin, m_end, k_total, n_total);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void gemm_avx2(
    const double* a, const double* b, Count ldb, double* c, Count ldc,
    Count m_begin, Count m_end, Count k_total, Count n_total) {
  gemm_blocked<Vec4>(a, b, ldb, c, ldc, m_begin, m_end, k_total, n_total);
}
#endif

/// Lower windows [w0, w0 + nb) of the im2col matrix into `panel`, a
/// row-major rows x nb matrix.  Row r corresponds to kernel element
/// (ic, ky, kx) with r = (ic * kh + ky) * kw + kx, and window w to
/// output (w / ow, w % ow); out-of-range taps (zero padding) become
/// explicit zeros, so every element is written.
void lower_stripe(const Tensord& ifm, Dim kh, Dim kw, const ConvConfig& config,
                  Dim ow, Count rows, Count w0, Count nb, double* panel) {
  const Shape4& in = ifm.shape();
  const Dim ih = in.d2;
  const Dim iw = in.d3;
  const double* input = ifm.data().data();
  const auto oy0 = static_cast<Dim>(w0 / ow);
  const auto ox0 = static_cast<Dim>(w0 % ow);
  for (Count r = 0; r < rows; ++r) {
    const auto kx = static_cast<Dim>(r % kw);
    const auto ky = static_cast<Dim>((r / kw) % kh);
    const auto c = static_cast<Dim>(r / (static_cast<Count>(kw) * kh));
    const double* channel = input + static_cast<Count>(c) * ih * iw;
    double* dst = panel + r * nb;
    // The stripe crosses output rows: walk it one output-row run at a
    // time.
    Dim oy = oy0;
    Dim ox = ox0;
    for (Count n = 0; n < nb; ++oy, ox = 0) {
      const Count run = std::min<Count>(ow - ox, nb - n);
      const Dim y = oy * config.stride_h + ky - config.pad_h;
      if (y < 0 || y >= ih) {
        std::fill(dst + n, dst + n + run, 0.0);
      } else {
        const double* line = channel + static_cast<Count>(y) * iw;
        for (Count i = 0; i < run; ++i) {
          const Dim x = (ox + static_cast<Dim>(i)) * config.stride_w + kx -
                        config.pad_w;
          dst[n + i] = (x >= 0 && x < iw) ? line[x] : 0.0;
        }
      }
      n += run;
    }
  }
}

}  // namespace

namespace detail {

GemmKernel portable_gemm_kernel() { return gemm_portable; }

GemmKernel avx2_gemm_kernel() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    return gemm_avx2;
  }
#endif
  return nullptr;
}

}  // namespace detail

void gemm_accumulate(const double* a, const double* b, Count ldb, double* c,
                     Count ldc, Count m_begin, Count m_end, Count k_total,
                     Count n_total) {
  // Picked once: the CPU does not change under a running process.
  static const detail::GemmKernel kernel = [] {
    const detail::GemmKernel avx2 = detail::avx2_gemm_kernel();
    return avx2 != nullptr ? avx2 : detail::portable_gemm_kernel();
  }();
  kernel(a, b, ldb, c, ldc, m_begin, m_end, k_total, n_total);
}

Tensord conv2d_gemm(const Tensord& ifm, const Tensord& weights,
                    const ConvConfig& config, ConvWorkspace* workspace,
                    ThreadPool& pool) {
  const Shape4& in = ifm.shape();
  const Shape4& w = weights.shape();
  VWSDK_REQUIRE(in.d0 == 1, "gemm backend expects batch 1");
  VWSDK_REQUIRE(in.d1 == w.d1, cat("IC mismatch: ifm has ", in.d1,
                                   " channels, weights expect ", w.d1));
  const Dim oc = w.d0;
  const Dim kh = w.d2;
  const Dim kw = w.d3;
  const Dim oh = conv_output_extent(in.d2, kh, config.stride_h, config.pad_h);
  const Dim ow = conv_output_extent(in.d3, kw, config.stride_w, config.pad_w);
  const Count rows = static_cast<Count>(in.d1) * kh * kw;  // kernel volume
  const Count windows = static_cast<Count>(oh) * ow;

  // Work items are (window stripe, OC block) pairs, stripe-major.  Big
  // OFMs have stripes enough for every slot; smaller ones split OC into
  // blocks (whole register-tile passes) until each slot has about
  // kItemsPerSlot items.
  const Count stripes = ceil_div(windows, kNc);
  const Count width = std::min(kNc, windows);
  const Count macs = static_cast<Count>(oc) * rows * windows;
  const Count pool_slots = macs < kParallelCutoffMacs ? 1 : pool.size();
  const Count wanted_blocks =
      pool_slots == 1 ? 1
                      : std::min(ceil_div(kItemsPerSlot * pool_slots, stripes),
                                 ceil_div(oc, kMr));
  const Count oc_block = kMr * ceil_div(oc, kMr * wanted_blocks);
  const Count oc_blocks = ceil_div(oc, oc_block);
  const Count slots = std::min(pool_slots, stripes * oc_blocks);

  // Each stripe is lowered once, into one of `panels` rows x width
  // panels: the memory depends on the stripe width and the pool, not on
  // the number of windows.
  const Count panels = std::min(slots, stripes);
  const Count panel_size = rows * width;
  ConvWorkspace local;
  ConvWorkspace& scratch = workspace != nullptr ? *workspace : local;
  scratch.columns.resize(static_cast<std::size_t>(panels * panel_size));
  double* const columns = scratch.columns.data();

  Tensord ofm = Tensord::feature_map(oc, oh, ow);
  // The weight tensor's raw storage (OC, IC, KH, KW row-major) is
  // already the OC x kernel_volume left-hand matrix in (ic, ky, kx) row
  // order -- no packing needed.
  const double* a = weights.data().data();
  double* c = ofm.data().data();
  const auto stripe_width = [&](Count stripe) {
    return std::min(width, windows - stripe * width);
  };
  const auto lower = [&](Count stripe, double* panel) {
    lower_stripe(ifm, kh, kw, config, ow, rows, stripe * width,
                 stripe_width(stripe), panel);
  };
  const auto multiply = [&](Count stripe, Count block, const double* panel) {
    const Count nb = stripe_width(stripe);
    const Count m_begin = block * oc_block;
    const Count m_end = std::min<Count>(m_begin + oc_block, oc);
    gemm_accumulate(a, panel, nb, c + stripe * width, windows, m_begin,
                    m_end, rows, nb);
  };
  if (oc_blocks == 1) {
    // One item per stripe: it lowers the stripe into its slot's panel
    // and multiplies it for every output channel.
    parallel_slots(pool, slots, stripes, [&](Count slot, Count stripe) {
      double* panel = columns + slot * panel_size;
      lower(stripe, panel);
      multiply(stripe, 0, panel);
    });
  } else {
    // Few stripes: lower up to `panels` of them, one per panel, then let
    // the OC blocks of each share its panel.
    for (Count first = 0; first < stripes; first += panels) {
      const Count round = std::min(panels, stripes - first);
      parallel_slots(pool, round, round, [&](Count, Count i) {
        lower(first + i, columns + i * panel_size);
      });
      parallel_slots(pool, slots, round * oc_blocks, [&](Count, Count item) {
        const Count i = item / oc_blocks;
        multiply(first + i, item % oc_blocks, columns + i * panel_size);
      });
    }
  }
  return ofm;
}

}  // namespace vwsdk
