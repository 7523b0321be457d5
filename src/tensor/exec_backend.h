#pragma once

/// @file exec_backend.h
/// The names of the reference convolution's two implementations.
///
/// Every mapped execution in this repo is checked against a software
/// reference convolution.  It has exactly two implementations, picked by
/// name through `ExecutionOptions::ref_backend`, the CLI's
/// `--ref-backend` flag, or the `VWSDK_REF_BACKEND` environment variable
/// (see `resolve_ref_backend`):
///   * `scalar` (alias `direct`) -- conv2d_direct (tensor/conv_ref.h),
///     the obviously-correct oracle;
///   * `gemm` (alias `im2col-gemm`) -- conv2d_gemm, blocked im2col +
///     tiled GEMM on the thread pool (tensor/gemm_backend.h), the fast
///     default.
/// reference_convolution (sim/verifier.h) branches on the resolved name.
///
/// Contract: on integer-valued tensors (the verification convention,
/// see tensor.h) `gemm` produces an OFM bitwise identical to `scalar`,
/// for any thread count -- pinned by the parity suite in
/// tests/tensor/test_exec_backend.cpp and the bench_exec gate.

#include <string>
#include <vector>

namespace vwsdk {

/// Reusable scratch memory for reference convolutions.  Passing the same
/// workspace across calls (the pipeline does, across the groups and
/// stages of a run) lets conv2d_gemm keep its scratch allocated instead
/// of reallocating per convolution.  conv2d_direct needs none.
struct ConvWorkspace {
  /// conv2d_gemm's im2col panels: one kernel_volume x stripe panel per
  /// worker slot, row-major (tensor/gemm_backend.h).
  std::vector<double> columns;
};

/// The canonical names joined as "scalar, gemm" -- what error messages
/// and the --ref-backend help embed.
std::string ref_backend_names();

/// The canonical name ("scalar" or "gemm") of the backend a verification
/// should use: `requested` when non-empty, else the `VWSDK_REF_BACKEND`
/// environment variable when set and non-empty, else "gemm" (fast, and
/// bitwise identical to the scalar oracle on the integer tensors
/// verification uses).  Names and aliases match case-insensitively with
/// surrounding whitespace ignored.  Throws NotFound listing the known
/// names when the requested or environment name is unknown.
std::string resolve_ref_backend(const std::string& requested = {});

}  // namespace vwsdk
