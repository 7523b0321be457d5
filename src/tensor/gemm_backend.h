#pragma once

/// @file gemm_backend.h
/// The fast reference-convolution backend: blocked im2col + tiled GEMM.
///
/// This is the software analogue of the paper's im2col framing (§II-A)
/// turned into an execution engine: the input feature map is lowered
/// into a kernel_volume x windows matrix (rows in (ic, ky, kx) order,
/// ic-major, so the weight tensor's raw storage already IS the
/// left-hand matrix), and the convolution becomes one dense
/// matrix-matrix product, cache-blocked and fanned out across the
/// thread pool.
///
/// The multiply-accumulate itself is `gemm_accumulate`, the one MVM
/// kernel of the repo: the crossbar simulator (pim/crossbar.h) runs a
/// tile's batch of computing cycles through it as well, on the compact
/// block of cells the tile binds.
///
/// Thread pool: the registry's shared "gemm" instance fans out over
/// `shared_pool()` (common/thread_pool.h), the same pool the crossbar
/// executor uses (sim/executor.h); an explicitly constructed instance
/// owns a pool of its own size, which is how the determinism tests pin
/// the thread count.
///
/// Determinism contract (what lets `gemm` replace the scalar oracle on
/// the verification paths, and what keeps crossbar execution exact):
/// every output element accumulates its terms in ascending k (kernel-row
/// order here, physical array-row order in the crossbar), each output
/// row is computed wholly by one worker, and zero operands are not
/// skipped -- so the result is bitwise identical for any thread count,
/// and bitwise identical to conv2d_direct on integer-valued tensors
/// (integer sums are exact in double regardless of association).
/// Pinned by tests/tensor/test_exec_backend.cpp and
/// tests/pim/test_crossbar.cpp, and gated by bench_exec.

#include <memory>

#include "common/thread_pool.h"
#include "tensor/exec_backend.h"

namespace vwsdk {

/// C[m, :] += A[m, :] * B for rows m in [m_begin, m_end) of row-major
/// A (m x k_total), B (k_total x n_total) and C (m x n_total), cache
/// blocked over column stripes and k, four output rows per pass over a
/// B block.  Per output element the terms accumulate in ascending k, the
/// same order for any blocking or row range (see the determinism
/// contract above).
void gemm_accumulate(const double* a, const double* b, double* c,
                     Count m_begin, Count m_end, Count k_total,
                     Count n_total);

/// Blocked im2col + tiled GEMM convolution on a thread pool.
class GemmBackend : public RefBackend {
 public:
  /// Run on `pool`, which must outlive the backend (the registry's
  /// instance runs on shared_pool()).
  explicit GemmBackend(ThreadPool& pool);

  /// Run on an owned pool of `threads` workers; `threads <= 0` resolves
  /// through ThreadPool::resolve_thread_count (VWSDK_THREADS, then
  /// hardware).
  explicit GemmBackend(int threads = 0);

  /// Worker threads of the pool.
  int threads() const;

  Tensord conv2d(const Tensord& ifm, const Tensord& weights,
                 const ConvConfig& config,
                 ConvWorkspace* workspace) const override;

 private:
  std::unique_ptr<ThreadPool> owned_;  ///< null when the pool is borrowed
  ThreadPool* pool_;
};

}  // namespace vwsdk
