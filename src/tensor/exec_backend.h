#pragma once

/// @file exec_backend.h
/// Pluggable execution backends for the reference convolution.
///
/// Every mapped execution in this repo is checked against a software
/// reference convolution, which made the scalar 7-deep loop of
/// conv_ref.cpp the slowest test path (large-network end-to-end
/// verification pays it per stage and per group).  This header makes
/// the reference pluggable: a `RefBackend` computes the same OFM, a
/// `BackendRegistry` names the implementations, and callers pick one by
/// name through `ExecutionOptions::ref_backend`, the CLI's
/// `--ref-backend` flag, or the `VWSDK_REF_BACKEND` environment
/// variable (see `resolve_ref_backend`).
///
/// Two backends are built in:
///   * `scalar` -- conv2d_direct, the obviously-correct oracle;
///   * `gemm`   -- blocked im2col + tiled GEMM on the thread pool
///                 (tensor/gemm_backend.h), the fast default.
///
/// The registry follows the self-registration pattern of
/// core/mapper_registry.h: each backend registers itself in its own
/// .cpp, and the bootstrap in exec_backend.cpp references one anchor
/// symbol per built-in so the static library cannot silently drop a
/// registration.
///
/// Contract: on integer-valued tensors (the verification convention,
/// see tensor.h) every backend must produce an OFM bitwise identical to
/// `scalar`, for any thread count -- pinned by the parity suite in
/// tests/tensor/test_exec_backend.cpp and the bench_exec gate.

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "tensor/conv_ref.h"
#include "tensor/tensor.h"

namespace vwsdk {

/// Reusable scratch memory for backend convolutions.  Passing the same
/// workspace across calls (the pipeline and verify_network do, across
/// the groups, stages and layers of a run) lets a backend keep its
/// scratch allocated instead of reallocating per convolution.  Backends
/// that need no scratch simply ignore it.
struct ConvWorkspace {
  /// The gemm backend's im2col panels: one kernel_volume x stripe panel
  /// per worker slot, row-major (tensor/gemm_backend.h).
  std::vector<double> columns;
};

/// Interface of a reference-convolution implementation.
class RefBackend {
 public:
  virtual ~RefBackend() = default;

  /// The convolution conv2d_direct computes, same shapes and validation.
  ///
  /// @param ifm       feature map, shape (1, IC, H, W).
  /// @param weights   kernel bank, shape (OC, IC, KH, KW).
  /// @param config    stride / padding.
  /// @param workspace optional scratch reused across calls; nullptr
  ///                  means the backend allocates locally.
  /// @return          feature map, shape (1, OC, OH, OW).
  virtual Tensord conv2d(const Tensord& ifm, const Tensord& weights,
                         const ConvConfig& config = ConvConfig(),
                         ConvWorkspace* workspace = nullptr) const = 0;
};

/// The oracle: defers to conv2d_direct (tensor/conv_ref.h).
class ScalarBackend : public RefBackend {
 public:
  Tensord conv2d(const Tensord& ifm, const Tensord& weights,
                 const ConvConfig& config,
                 ConvWorkspace* workspace) const override;
};

/// One registered execution backend.
struct RefBackendInfo {
  std::string name;                  ///< canonical name ("gemm")
  std::vector<std::string> aliases;  ///< extra lookup keys
  std::string description;           ///< one line, for docs and errors

  /// Presentation rank: names() sorts by (sort_key, name) so listings
  /// and error messages are deterministic regardless of registration
  /// order.  Built-ins list the oracle first; externals default after.
  int sort_key = 1000;

  /// Returns the process-lifetime shared instance.  Backends are
  /// stateless with respect to results, so one instance serves every
  /// caller; sharing matters because the gemm backend owns a thread
  /// pool that would be wasteful to recreate per convolution.
  std::function<const RefBackend&()> instance;
};

/// Thread-safe name-to-backend registry, mirroring MapperRegistry.
class BackendRegistry {
 public:
  /// The process-wide registry with every built-in backend registered.
  static BackendRegistry& instance();

  /// An empty registry (for tests composing their own).
  BackendRegistry() = default;
  BackendRegistry(const BackendRegistry&) = delete;
  BackendRegistry& operator=(const BackendRegistry&) = delete;

  /// Register a backend.  Throws InvalidArgument on a missing name or
  /// instance function, or when the name or an alias (case-insensitive)
  /// is taken.
  void add(RefBackendInfo info) VWSDK_EXCLUDES(mutex_);

  /// True when `name` resolves to a registered backend (canonical name
  /// or alias, case-insensitive, surrounding whitespace ignored).
  bool contains(const std::string& name) const VWSDK_EXCLUDES(mutex_);

  /// Metadata of the backend `name` resolves to; throws NotFound
  /// listing the known names.  The reference stays valid for the
  /// registry's lifetime.
  const RefBackendInfo& info(const std::string& name) const
      VWSDK_EXCLUDES(mutex_);

  /// The shared instance of the backend `name` resolves to; throws
  /// NotFound listing the known names.
  const RefBackend& get(const std::string& name) const
      VWSDK_EXCLUDES(mutex_);

  /// Canonical names, sorted by (sort_key, name).
  std::vector<std::string> names() const VWSDK_EXCLUDES(mutex_);

  /// The names joined as "a, b" -- what error messages and help embed.
  std::string known_names() const;

  /// Number of registered backends.
  Count size() const VWSDK_EXCLUDES(mutex_);

 private:
  std::vector<std::string> names_locked() const VWSDK_REQUIRES(mutex_);

  mutable Mutex mutex_;
  /// unique_ptr so info() references survive vector growth.
  std::vector<std::unique_ptr<RefBackendInfo>> infos_
      VWSDK_GUARDED_BY(mutex_);
  std::unordered_map<std::string, const RefBackendInfo*> lookup_
      VWSDK_GUARDED_BY(mutex_);
};

/// Registers `info` into BackendRegistry::instance() at construction.
/// Define one as a namespace-scope static in a backend's translation
/// unit to self-register before main() -- for code linked into the
/// final binary (tests, plugins).  Built-ins inside the static library
/// register through the bootstrap anchors instead (see file comment).
class RefBackendRegistrar {
 public:
  explicit RefBackendRegistrar(RefBackendInfo info);
};

/// The canonical name of the backend a verification should use:
/// `requested` when non-empty, else the `VWSDK_REF_BACKEND` environment
/// variable when set and non-empty, else "gemm" (fast, and bitwise
/// identical to the scalar oracle on the integer tensors verification
/// uses).  Throws NotFound listing the registered names when the
/// requested or environment name is unknown.
std::string resolve_ref_backend(const std::string& requested = {});

}  // namespace vwsdk
