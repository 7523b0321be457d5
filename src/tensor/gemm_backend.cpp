#include "tensor/gemm_backend.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/string_util.h"

namespace vwsdk {

namespace {

// Cache blocking: the inner product walks kKc kernel rows of a kNc-wide
// column stripe, so the working set (one A sliver, one B block, one C
// stripe) stays L1/L2-resident; the chunk of output rows handed to one
// worker by parallel_chunks plays the `mc` role.
constexpr Count kKc = 256;
constexpr Count kNc = 128;
// Output rows the micro-kernel computes per pass over a B block.
constexpr int kMr = 4;

// Below this many MACs the pool dispatch overhead dominates the
// arithmetic; run single-threaded in the calling thread instead (the
// result is bitwise identical either way, see gemm_backend.h).
constexpr Count kParallelCutoffMacs = Count{1} << 15;

/// The micro-kernel: C[m + r, n0 : n0 + nb] += A[m + r, k] * B[k, n0 : ...]
/// for the R rows r < R and k ascending in [k0, k_end).  Each B element
/// loaded serves R multiply-adds, and every output element still takes
/// its terms one at a time in ascending k.
template <int R>
void accumulate_rows(const double* a, const double* b, double* c, Count m,
                     Count k0, Count k_end, Count n0, Count nb,
                     Count k_total, Count n_total) {
  const double* a_rows[R];
  double* c_rows[R];
  for (int r = 0; r < R; ++r) {
    a_rows[r] = a + (m + r) * k_total;
    c_rows[r] = c + (m + r) * n_total + n0;
  }
  for (Count k = k0; k < k_end; ++k) {
    double weights[R];
    for (int r = 0; r < R; ++r) {
      weights[r] = a_rows[r][k];
    }
    const double* b_row = b + k * n_total + n0;
    for (Count n = 0; n < nb; ++n) {
      const double value = b_row[n];
      for (int r = 0; r < R; ++r) {
        c_rows[r][n] += weights[r] * value;
      }
    }
  }
}

/// Lower input rows [row_begin, row_end) of the im2col matrix into
/// `columns` (kernel_volume x windows, row-major).  Row r corresponds
/// to kernel element (ic, ky, kx) with r = (ic * kh + ky) * kw + kx;
/// out-of-range taps (zero padding) become explicit zeros, so
/// every element of the row range is written.
void pack_rows(const Tensord& ifm, Dim kh, Dim kw, const ConvConfig& config,
               Dim oh, Dim ow, Count row_begin, Count row_end,
               double* columns) {
  const Shape4& in = ifm.shape();
  const Dim ih = in.d2;
  const Dim iw = in.d3;
  const double* input = ifm.data().data();
  const Count cols = static_cast<Count>(oh) * ow;
  for (Count r = row_begin; r < row_end; ++r) {
    const Dim kx = static_cast<Dim>(r % kw);
    const Dim ky = static_cast<Dim>((r / kw) % kh);
    const Dim c = static_cast<Dim>(r / (static_cast<Count>(kw) * kh));
    const double* channel =
        input + static_cast<Count>(c) * ih * iw;
    double* row = columns + r * cols;
    for (Dim oy = 0; oy < oh; ++oy) {
      const Dim y = oy * config.stride_h + ky - config.pad_h;
      double* dst = row + static_cast<Count>(oy) * ow;
      if (y < 0 || y >= ih) {
        std::fill(dst, dst + ow, 0.0);
        continue;
      }
      const double* line = channel + static_cast<Count>(y) * iw;
      for (Dim ox = 0; ox < ow; ++ox) {
        const Dim x = ox * config.stride_w + kx - config.pad_w;
        dst[ox] = (x >= 0 && x < iw) ? line[x] : 0.0;
      }
    }
  }
}

}  // namespace

void gemm_accumulate(const double* a, const double* b, double* c,
                     Count m_begin, Count m_end, Count k_total,
                     Count n_total) {
  for (Count n0 = 0; n0 < n_total; n0 += kNc) {
    const Count nb = std::min(kNc, n_total - n0);
    for (Count k0 = 0; k0 < k_total; k0 += kKc) {
      const Count k_end = std::min(k0 + kKc, k_total);
      Count m = m_begin;
      for (; m + kMr <= m_end; m += kMr) {
        accumulate_rows<kMr>(a, b, c, m, k0, k_end, n0, nb, k_total,
                             n_total);
      }
      for (; m < m_end; ++m) {
        accumulate_rows<1>(a, b, c, m, k0, k_end, n0, nb, k_total, n_total);
      }
    }
  }
}

GemmBackend::GemmBackend(ThreadPool& pool) : pool_(&pool) {}

GemmBackend::GemmBackend(int threads)
    : owned_(std::make_unique<ThreadPool>(threads)), pool_(owned_.get()) {}

int GemmBackend::threads() const { return pool_->size(); }

Tensord GemmBackend::conv2d(const Tensord& ifm, const Tensord& weights,
                            const ConvConfig& config,
                            ConvWorkspace* workspace) const {
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
  const Count cols = static_cast<Count>(oh) * ow;          // windows

  ConvWorkspace local;
  ConvWorkspace& scratch = workspace != nullptr ? *workspace : local;
  scratch.columns.resize(static_cast<std::size_t>(rows * cols));
  double* columns = scratch.columns.data();

  Tensord ofm = Tensord::feature_map(oc, oh, ow);
  // The weight tensor's raw storage (OC, IC, KH, KW row-major) is
  // already the OC x kernel_volume left-hand matrix in (ic, ky, kx) row
  // order -- no packing needed.
  const double* a = weights.data().data();
  double* c = ofm.data().data();

  const Count macs = static_cast<Count>(oc) * rows * cols;
  const bool inline_run = macs < kParallelCutoffMacs || pool_->size() == 1;
  if (inline_run) {
    pack_rows(ifm, kh, kw, config, oh, ow, 0, rows, columns);
    gemm_accumulate(a, columns, c, 0, oc, rows, cols);
    return ofm;
  }
  parallel_chunks(*pool_, rows, [&](Count begin, Count end) {
    pack_rows(ifm, kh, kw, config, oh, ow, begin, end, columns);
  });
  parallel_chunks(*pool_, oc, [&](Count begin, Count end) {
    gemm_accumulate(a, columns, c, begin, end, rows, cols);
  });
  return ofm;
}

namespace detail {

void register_gemm_backend(BackendRegistry& registry) {
  RefBackendInfo info;
  info.name = "gemm";
  info.aliases = {"im2col-gemm"};
  info.description =
      "blocked im2col + tiled GEMM fanned out across the thread pool -- "
      "bitwise identical to scalar on integer tensors, the fast default";
  info.sort_key = 20;
  info.instance = []() -> const RefBackend& {
    static const GemmBackend backend(shared_pool());
    return backend;
  };
  registry.add(std::move(info));
}

}  // namespace detail

}  // namespace vwsdk
