#pragma once

/// @file thread_pool.h
/// A fixed-size, futures-based worker pool with no dependencies beyond
/// the standard library.
///
/// Design notes:
///  * Tasks are submitted with `submit()` and return a `std::future`;
///    exceptions thrown by a task propagate through the future.
///  * The pool is *non-reentrant*: a task must never block on the future
///    of another task submitted to the same pool (with every worker
///    occupied such a wait can never be satisfied).  The network
///    optimizer therefore uses the pool at exactly one level at a time --
///    either across layers or across window candidates, never nested.
///  * `parallel_chunks()` is the bulk primitive the mapping code uses:
///    split an index range into contiguous chunks, run them on the pool,
///    and block until all complete (rethrowing the first task exception).
///    `parallel_slots()` is its variant for work that needs scratch: a
///    fixed number of slots claim items one at a time, so per-slot
///    buffers are allocated once by the caller and never shared.
///  * `shared_pool()` is the one process-wide pool of the compute
///    kernels: the registry's "gemm" reference backend and the crossbar
///    executor both fan out over it.  Neither runs inside one of its
///    tasks, so concurrent requests share it without re-entering it.
///
/// Thread count resolution (`default_thread_count`): the `VWSDK_THREADS`
/// environment variable when set to a positive integer, otherwise
/// `std::thread::hardware_concurrency()`; always clamped to [1, 256].
/// An unparseable or non-positive `VWSDK_THREADS` degrades to the
/// hardware default and logs a one-time warning (per distinct bad
/// value) naming the value and the fallback.

#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/types.h"

namespace vwsdk {

/// Fixed-size worker pool executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Start `threads` workers; `threads <= 0` means default_thread_count().
  explicit ThreadPool(int threads = 0);

  /// Drains nothing: joins after finishing all queued tasks.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue `task`; the returned future yields its result (or rethrows
  /// its exception).
  template <typename F>
  auto submit(F task) -> std::future<std::invoke_result_t<F&>> {
    using Result = std::invoke_result_t<F&>;
    auto packaged = std::make_shared<std::packaged_task<Result()>>(
        std::move(task));
    std::future<Result> future = packaged->get_future();
    enqueue([packaged]() { (*packaged)(); });
    return future;
  }

  /// `VWSDK_THREADS` env var if set to a positive integer, else
  /// hardware_concurrency(); clamped to [1, 256].
  static int default_thread_count();

  /// `requested > 0` passes through (clamped to 256); otherwise
  /// default_thread_count().
  static int resolve_thread_count(int requested);

 private:
  void enqueue(std::function<void()> job) VWSDK_EXCLUDES(mutex_);
  void worker_loop() VWSDK_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_ VWSDK_GUARDED_BY(mutex_);
  Mutex mutex_;
  CondVar ready_;
  bool stopping_ VWSDK_GUARDED_BY(mutex_) = false;
};

/// Run `fn(begin, end)` over [0, n) split into contiguous chunks spread
/// across the pool; blocks until every chunk finishes.  The first chunk
/// exception (in chunk order) is rethrown after all chunks complete.
/// Must not be called from inside a task running on the same pool.
void parallel_chunks(ThreadPool& pool, Count n,
                     const std::function<void(Count begin, Count end)>& fn);

/// Run `fn(slot, item)` for every item in [0, n) on `slots` tasks of the
/// pool; each task owns one slot in [0, slots) and claims items one at a
/// time, so scratch indexed by slot is touched by one thread at a time.
/// `slots <= 1` runs every item inline on slot 0.  Blocks until every
/// item finishes; the first task exception (in slot order) is rethrown.
/// Must not be called from inside a task running on the same pool.
void parallel_slots(ThreadPool& pool, Count slots, Count n,
                    const std::function<void(Count slot, Count item)>& fn);

/// The process-wide compute pool, started on first use with
/// default_thread_count() workers.
ThreadPool& shared_pool();

}  // namespace vwsdk
