#include "tensor/gemm_backend.h"

#include <algorithm>
#include <vector>

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
// Output rows the micro-kernel computes per pass over a B block.
constexpr int kMr = 4;

// Below this many MACs the pool dispatch overhead dominates the
// arithmetic; run single-threaded in the calling thread instead (the
// result is bitwise identical either way, see gemm_backend.h).
constexpr Count kParallelCutoffMacs = Count{1} << 15;

// Work items the convolution aims to give each slot.  A layer with
// fewer window stripes than that splits its output channels into
// blocks, so a 7x7 OFM (one stripe) still keeps every worker busy.
constexpr Count kItemsPerSlot = 4;

/// The micro-kernel: C[m + r, n0 : n0 + nb] += A[m + r, k] * B[k, n0 : ...]
/// for the R rows r < R and k ascending in [k0, k_end).  Each B element
/// loaded serves R multiply-adds, and every output element still takes
/// its terms one at a time in ascending k.
template <int R>
void accumulate_rows(const double* a, const double* b, Count ldb, double* c,
                     Count ldc, Count m, Count k0, Count k_end, Count n0,
                     Count nb, Count k_total) {
  const double* a_rows[R];
  double* c_rows[R];
  for (int r = 0; r < R; ++r) {
    a_rows[r] = a + (m + r) * k_total;
    c_rows[r] = c + (m + r) * ldc + n0;
  }
  for (Count k = k0; k < k_end; ++k) {
    double weights[R];
    for (int r = 0; r < R; ++r) {
      weights[r] = a_rows[r][k];
    }
    const double* b_row = b + k * ldb + n0;
    for (Count n = 0; n < nb; ++n) {
      const double value = b_row[n];
      for (int r = 0; r < R; ++r) {
        c_rows[r][n] += weights[r] * value;
      }
    }
  }
}

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

void gemm_accumulate(const double* a, const double* b, Count ldb, double* c,
                     Count ldc, Count m_begin, Count m_end, Count k_total,
                     Count n_total) {
  for (Count n0 = 0; n0 < n_total; n0 += kNc) {
    const Count nb = std::min(kNc, n_total - n0);
    for (Count k0 = 0; k0 < k_total; k0 += kKc) {
      const Count k_end = std::min(k0 + kKc, k_total);
      Count m = m_begin;
      for (; m + kMr <= m_end; m += kMr) {
        accumulate_rows<kMr>(a, b, ldb, c, ldc, m, k0, k_end, n0, nb,
                             k_total);
      }
      for (; m < m_end; ++m) {
        accumulate_rows<1>(a, b, ldb, c, ldc, m, k0, k_end, n0, nb, k_total);
      }
    }
  }
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
  // OFMs have stripes enough for every slot, and each stripe is lowered
  // once; smaller ones split OC into blocks (whole micro-kernel passes)
  // until each slot has about kItemsPerSlot items.
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
  const Count items = stripes * oc_blocks;
  const Count slots = std::min(pool_slots, items);

  // One rows x width panel per slot: the memory depends on the stripe
  // width and the pool, not on the number of windows.
  const Count panel_size = rows * width;
  ConvWorkspace local;
  ConvWorkspace& scratch = workspace != nullptr ? *workspace : local;
  scratch.columns.resize(static_cast<std::size_t>(slots * panel_size));

  Tensord ofm = Tensord::feature_map(oc, oh, ow);
  // The weight tensor's raw storage (OC, IC, KH, KW row-major) is
  // already the OC x kernel_volume left-hand matrix in (ic, ky, kx) row
  // order -- no packing needed.
  const double* a = weights.data().data();
  double* c = ofm.data().data();
  // The stripe each slot's panel holds: a slot that claims another OC
  // block of the same stripe multiplies the panel it already lowered.
  std::vector<Count> lowered(static_cast<std::size_t>(slots), -1);
  parallel_slots(pool, slots, items, [&](Count slot, Count item) {
    const Count stripe = item / oc_blocks;
    const Count w0 = stripe * width;
    const Count nb = std::min(width, windows - w0);
    const Count m_begin = (item % oc_blocks) * oc_block;
    const Count m_end = std::min<Count>(m_begin + oc_block, oc);
    double* panel = scratch.columns.data() + slot * panel_size;
    Count& held = lowered[static_cast<std::size_t>(slot)];
    if (held != stripe) {
      lower_stripe(ifm, kh, kw, config, ow, rows, w0, nb, panel);
      held = stripe;
    }
    gemm_accumulate(a, panel, nb, c + w0, windows, m_begin, m_end, rows, nb);
  });
  return ofm;
}

}  // namespace vwsdk
