#pragma once

/// @file gemm_backend.h
/// The fast reference-convolution backend: blocked im2col + tiled GEMM.
///
/// This is the software analogue of the paper's im2col framing (§II-A)
/// turned into an execution engine: the convolution is the product of
/// the weight tensor's raw storage (rows in (ic, ky, kx) order, ic-major,
/// so it already IS the left-hand matrix) and the kernel_volume x
/// windows im2col matrix.  That matrix is never built whole: each work
/// item lowers one stripe of windows (kStripe at most) into a per-slot
/// panel and multiplies it for a block of output channels, writing only
/// that stripe of those channels' OFM.  The items, (stripe, OC block)
/// pairs, fan out across the thread pool, so the scratch memory is at
/// most slots x kernel_volume x kStripe doubles whatever the number of
/// windows.
///
/// The multiply-accumulate itself is `gemm_accumulate`, the one MVM
/// kernel of the repo: the crossbar simulator (pim/crossbar.h) runs a
/// tile's batch of computing cycles through it as well, once per packed
/// block (one per column class: the rows its shifted kernel covers by
/// the columns that share its window position).  It is written once over a GCC/Clang
/// vector type and instantiated twice: on four-double vectors compiled
/// for AVX2, and on two-double vectors as the portable fallback.  The
/// first call picks AVX2 when the CPU has it (x86-64 only) and the
/// fallback otherwise; there is no switch.
///
/// Thread pool: conv2d_gemm fans out over the pool it is given, by
/// default `shared_pool()` (common/thread_pool.h), the same pool the
/// crossbar executor uses (sim/executor.h); the determinism tests pass
/// pools of their own sizes.
///
/// Determinism contract (what lets `gemm` replace the scalar oracle on
/// the verification paths, and what keeps crossbar execution exact):
/// every output element accumulates its terms in ascending k (kernel-row
/// order here, physical array-row order in the crossbar), each output
/// element is computed wholly by one work item, and zero operands are not
/// skipped -- so the result is bitwise identical for any thread count,
/// and bitwise identical to conv2d_direct on integer-valued tensors
/// (integer sums are exact in double regardless of association).  Zero
/// operands are kept in the reference and in a crossbar's programmed
/// cells, zero weights included.  A crossbar's structural zeros, the
/// cells outside every packed block, are not operands at all:
/// pim/crossbar.h shows why dropping them keeps every read-out's bits.
/// Each term is a rounded multiply followed by a rounded add, `c = c + a*b`,
/// on either instantiation, so gemm_accumulate equals the naive scalar
/// loop bit for bit on any doubles.  That needs `-ffp-contract=off`
/// (set for GCC and Clang in CMakeLists.txt): GCC's C++ default, `fast`,
/// would fuse the pair into one FMA wherever FMA is enabled (a target
/// with "fma", or aarch64, where it is baseline) and round once instead
/// of twice.  Pinned by tests/tensor/test_exec_backend.cpp and
/// tests/pim/test_crossbar.cpp, and gated by bench_exec.

#include "common/thread_pool.h"
#include "tensor/conv_ref.h"
#include "tensor/exec_backend.h"

namespace vwsdk {

/// C[m, :] += A[m, :] * B for rows m in [m_begin, m_end) of row-major
/// A (m x k_total), and the first n_total columns of B (k_total rows,
/// `ldb` apart) and C (rows `ldc` apart).  Cache blocked over column
/// stripes and k; a register tile of four output rows by two vectors of
/// columns stays in registers across each k-block.  Per output element
/// the terms accumulate in ascending k, the same order for any blocking,
/// row range or instantiation (see the determinism contract above).
void gemm_accumulate(const double* a, const double* b, Count ldb, double* c,
                     Count ldc, Count m_begin, Count m_end, Count k_total,
                     Count n_total);

namespace detail {

/// One instantiation of the MVM kernel, with gemm_accumulate's signature
/// and contract.  gemm_accumulate runs avx2_gemm_kernel() where it is
/// not null and portable_gemm_kernel() otherwise; the tests reach both
/// to pin them against the scalar loop.
using GemmKernel = void (*)(const double* a, const double* b, Count ldb,
                            double* c, Count ldc, Count m_begin,
                            Count m_end, Count k_total, Count n_total);

/// The two-double-vector instantiation; runs on every target.
GemmKernel portable_gemm_kernel();

/// The four-double-vector instantiation compiled for AVX2, or nullptr
/// when the CPU lacks AVX2 or the build is not for x86-64.
GemmKernel avx2_gemm_kernel();

}  // namespace detail

/// Windows per stripe (all but the last), the im2col columns one work
/// item of conv2d_gemm lowers and multiplies.  A convolution's workspace
/// holds at most pool.size() x kernel_volume x kStripe doubles.
constexpr Count kStripe = 128;

/// The convolution conv2d_direct computes (same shapes and validation),
/// as blocked im2col + tiled GEMM fanned out over `pool`.
///
/// @param ifm       feature map, shape (1, IC, H, W).
/// @param weights   kernel bank, shape (OC, IC, KH, KW).
/// @param config    stride / padding.
/// @param workspace optional scratch reused across calls; nullptr
///                  allocates locally.
/// @param pool      the workers; the verification paths use
///                  shared_pool(), the determinism tests pin a size.
/// @return          feature map, shape (1, OC, OH, OW).
Tensord conv2d_gemm(const Tensord& ifm, const Tensord& weights,
                    const ConvConfig& config = ConvConfig(),
                    ConvWorkspace* workspace = nullptr,
                    ThreadPool& pool = shared_pool());

}  // namespace vwsdk
