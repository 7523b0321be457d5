#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>

#include "common/error.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace vwsdk {

namespace {

constexpr int kMaxThreads = 256;

int clamp_threads(long long value) {
  return static_cast<int>(
      std::clamp<long long>(value, 1, kMaxThreads));
}

// The warn-once cache lives at namespace scope (not function-local
// statics) so the guarded_by relation between the mutex and the set is
// expressible to the thread-safety analysis.
Mutex g_bad_threads_mutex;
std::set<std::string> g_bad_threads_warned
    VWSDK_GUARDED_BY(g_bad_threads_mutex);

// A mis-typed VWSDK_THREADS should degrade, not abort a mapping run --
// but it must not degrade *silently* either, or a fat-fingered value
// quietly changes every wall time.  Warn once per distinct bad value
// (default_thread_count is called per pool construction; repeating the
// warning every time would drown the log).
void warn_bad_threads_env(const char* value, int fallback) {
  {
    const MutexLock lock(g_bad_threads_mutex);
    if (!g_bad_threads_warned.insert(value).second) {
      return;
    }
  }
  // Log outside the lock: the sink is user code and must not run under
  // this cache's mutex (leaf-lock discipline, docs/CONCURRENCY.md).
  log_warn("VWSDK_THREADS=\"", value,
           "\" is not a positive integer; using ", fallback,
           " worker thread(s) instead");
}

}  // namespace

int ThreadPool::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int hardware = clamp_threads(hw == 0 ? 1 : static_cast<long long>(hw));
  if (const char* env = std::getenv("VWSDK_THREADS")) {
    try {
      const long long parsed = parse_count(env);
      if (parsed > 0) {
        return clamp_threads(parsed);
      }
      warn_bad_threads_env(env, hardware);  // "0"
    } catch (const InvalidArgument&) {
      // Garbage, a sign, or overflow: parse_count rejects them all.
      warn_bad_threads_env(env, hardware);
    }
  }
  return hardware;
}

int ThreadPool::resolve_thread_count(int requested) {
  if (requested > 0) {
    return clamp_threads(requested);
  }
  return default_thread_count();
}

ThreadPool::ThreadPool(int threads) {
  const int count = resolve_thread_count(threads);
  workers_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this]() { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    const MutexLock lock(mutex_);
    VWSDK_ASSERT(!stopping_, "submit() on a stopping ThreadPool");
    queue_.push(std::move(job));
  }
  ready_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      const MutexLock lock(mutex_);
      // Explicit predicate loop (not a wait-with-lambda): the guarded
      // reads stay in this locked scope where the analysis sees them.
      while (!stopping_ && queue_.empty()) {
        ready_.wait(mutex_);
      }
      if (queue_.empty()) {
        return;  // stopping_ and drained
      }
      job = std::move(queue_.front());
      queue_.pop();
    }
    job();  // packaged_task captures exceptions into its future
  }
}

void parallel_chunks(ThreadPool& pool, Count n,
                     const std::function<void(Count, Count)>& fn) {
  if (n <= 0) {
    return;
  }
  const Count workers = pool.size();
  // Several chunks per worker keeps uneven chunk costs from leaving
  // workers idle at the tail of the range.
  const Count target_chunks = std::min<Count>(n, workers * 4);
  const Count chunk = ceil_div(n, target_chunks);
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<std::size_t>(target_chunks));
  try {
    for (Count begin = 0; begin < n; begin += chunk) {
      const Count end = std::min<Count>(begin + chunk, n);
      futures.push_back(
          pool.submit([&fn, begin, end]() { fn(begin, end); }));
    }
  } catch (...) {
    // submit() failed mid-loop (e.g. bad_alloc).  Already-enqueued
    // chunks hold references to `fn` and the caller's captures; drain
    // them before unwinding destroys what they point at.
    for (std::future<void>& future : futures) {
      try {
        future.get();
      } catch (...) {
        // The caller sees the submit failure; chunk errors are moot.
      }
    }
    throw;
  }
  std::exception_ptr first_error;
  for (std::future<void>& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) {
        first_error = std::current_exception();
      }
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

void parallel_slots(ThreadPool& pool, Count slots, Count n,
                    const std::function<void(Count, Count)>& fn) {
  if (slots <= 1) {
    for (Count item = 0; item < n; ++item) {
      fn(0, item);
    }
    return;
  }
  std::atomic<Count> next{0};
  parallel_chunks(pool, slots, [&](Count begin, Count end) {
    for (Count slot = begin; slot < end; ++slot) {
      for (Count item = next++; item < n; item = next++) {
        fn(slot, item);
      }
    }
  });
}

ThreadPool& shared_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace vwsdk
