#include "common/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"

namespace vwsdk {
namespace {

/// RAII: capture warnings into a vector, restore logger defaults after.
class WarningCapture {
 public:
  WarningCapture() {
    messages_.clear();
    Logger::instance().set_sink([](LogLevel level, const std::string& msg) {
      if (level == LogLevel::kWarn) {
        messages_.push_back(msg);
      }
    });
  }
  ~WarningCapture() {
    Logger::instance().set_sink(nullptr);
    Logger::instance().set_level(LogLevel::kInfo);
  }

  static const std::vector<std::string>& messages() { return messages_; }

 private:
  static std::vector<std::string> messages_;
};

std::vector<std::string> WarningCapture::messages_;

/// RAII: restore the prior VWSDK_THREADS value (the sanitizer CI job
/// exports one globally; clobbering it would change later tests).
class ThreadsEnvGuard {
 public:
  ThreadsEnvGuard() {
    if (const char* prev = std::getenv("VWSDK_THREADS")) {
      had_value_ = true;
      saved_ = prev;
    }
  }
  ~ThreadsEnvGuard() {
    if (had_value_) {
      setenv("VWSDK_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("VWSDK_THREADS");
    }
  }

 private:
  bool had_value_ = false;
  std::string saved_;
};

TEST(ThreadPool, RunsSubmittedTasksAndReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, SingleWorkerStillCompletesEverything) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&count]() { ++count; }));
  }
  for (auto& future : futures) {
    future.get();
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, TaskExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([]() { return 7; });
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      (void)pool.submit([&count]() { ++count; });
    }
  }  // destructor joins after finishing the queue
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, ParallelChunksCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> seen(1000);
  parallel_chunks(pool, 1000, [&seen](Count begin, Count end) {
    for (Count i = begin; i < end; ++i) {
      ++seen[static_cast<std::size_t>(i)];
    }
  });
  for (const auto& cell : seen) {
    EXPECT_EQ(cell.load(), 1);
  }
}

TEST(ThreadPool, ParallelChunksEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_chunks(pool, 0, [&called](Count, Count) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelChunksRethrowsTaskException) {
  ThreadPool pool(3);
  EXPECT_THROW(
      parallel_chunks(pool, 100,
                      [](Count begin, Count) {
                        if (begin == 0) {
                          throw std::runtime_error("chunk failed");
                        }
                      }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelSlotsRunEveryItemOnceOneAtATimePerSlot) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> seen(500);
  std::vector<std::atomic<int>> busy(4);
  std::atomic<bool> overlapped{false};
  parallel_slots(pool, 4, 500, [&](Count slot, Count item) {
    ASSERT_GE(slot, 0);
    ASSERT_LT(slot, 4);
    std::atomic<int>& flag = busy[static_cast<std::size_t>(slot)];
    if (flag.fetch_add(1) != 0) {
      overlapped = true;  // two items on one slot's scratch at once
    }
    ++seen[static_cast<std::size_t>(item)];
    flag.fetch_sub(1);
  });
  EXPECT_FALSE(overlapped.load());
  for (const auto& cell : seen) {
    EXPECT_EQ(cell.load(), 1);
  }
}

TEST(ThreadPool, ParallelSlotsSingleSlotRunsInlineInOrder) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<Count> order;
  parallel_slots(pool, 1, 5, [&](Count slot, Count item) {
    EXPECT_EQ(slot, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(item);
  });
  EXPECT_EQ(order, (std::vector<Count>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ParallelSlotsRethrowsItemException) {
  ThreadPool pool(3);
  EXPECT_THROW(parallel_slots(pool, 3, 50,
                              [](Count, Count item) {
                                if (item == 17) {
                                  throw std::runtime_error("item failed");
                                }
                              }),
               std::runtime_error);
}

TEST(ThreadPool, SharedPoolIsOneProcessWidePool) {
  ThreadPool& pool = shared_pool();
  EXPECT_EQ(&pool, &shared_pool());
  EXPECT_GE(pool.size(), 1);
}

TEST(ThreadPool, ResolveThreadCountClampsAndPassesThrough) {
  EXPECT_EQ(ThreadPool::resolve_thread_count(4), 4);
  EXPECT_EQ(ThreadPool::resolve_thread_count(1), 1);
  EXPECT_EQ(ThreadPool::resolve_thread_count(100000), 256);
  EXPECT_GE(ThreadPool::resolve_thread_count(0), 1);
  EXPECT_GE(ThreadPool::resolve_thread_count(-5), 1);
}

TEST(ThreadPool, DefaultThreadCountHonoursEnvVar) {
  ThreadsEnvGuard env_guard;
  ASSERT_EQ(setenv("VWSDK_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3);
  ASSERT_EQ(setenv("VWSDK_THREADS", "0", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);  // falls back
  ASSERT_EQ(setenv("VWSDK_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);  // degrades, no throw
  ASSERT_EQ(unsetenv("VWSDK_THREADS"), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
}

// The degrade path must not be silent: each distinct bad value warns
// exactly once, naming the value and the fallback.  The bad values here
// must be unique to this test -- the once-per-value memory is
// process-wide, so a value another test already fed through
// default_thread_count would not warn again.
TEST(ThreadPool, BadEnvValueWarnsOncePerDistinctValue) {
  ThreadsEnvGuard env_guard;
  WarningCapture capture;
  const auto warnings = []() { return WarningCapture::messages().size(); };

  // Unparseable garbage.
  ASSERT_EQ(setenv("VWSDK_THREADS", "abc", 1), 0);
  const int fallback = ThreadPool::default_thread_count();
  EXPECT_GE(fallback, 1);
  ASSERT_EQ(warnings(), 1u);
  EXPECT_NE(WarningCapture::messages()[0].find("abc"), std::string::npos);
  EXPECT_NE(WarningCapture::messages()[0].find(std::to_string(fallback)),
            std::string::npos);

  // Repeating the same bad value does not warn again.
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
  EXPECT_EQ(warnings(), 1u);

  // Non-positive ("0" is already consumed by the env-var test above,
  // so use a zero spelling unique to this test).
  ASSERT_EQ(setenv("VWSDK_THREADS", "00", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
  ASSERT_EQ(warnings(), 2u);
  EXPECT_NE(WarningCapture::messages()[1].find("\"00\""), std::string::npos);

  // Negative (parse_count rejects the sign).
  ASSERT_EQ(setenv("VWSDK_THREADS", "-2", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
  ASSERT_EQ(warnings(), 3u);
  EXPECT_NE(WarningCapture::messages()[2].find("-2"), std::string::npos);

  // Overflow (parse_count rejects values past long long).
  ASSERT_EQ(setenv("VWSDK_THREADS", "99999999999999999999", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
  ASSERT_EQ(warnings(), 4u);
  EXPECT_NE(WarningCapture::messages()[3].find("99999999999999999999"),
            std::string::npos);

  // A good value never warns.
  ASSERT_EQ(setenv("VWSDK_THREADS", "2", 1), 0);
  EXPECT_EQ(ThreadPool::default_thread_count(), 2);
  EXPECT_EQ(warnings(), 4u);

  // The literal "0" also degrades cleanly.  Its warning count is not
  // asserted: the env-var test above may have already consumed the
  // once-per-value slot for "0" in this process.
  ASSERT_EQ(setenv("VWSDK_THREADS", "0", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
}

// ---------------------------------------------------------------------
// Contention cases (ctest label `stress`): these hammer the pool's
// locking hard enough for TSan to see real interleavings, not just the
// happy path.
// ---------------------------------------------------------------------

/// Teardown while the queue is still deep: workers are pinned by gate
/// tasks while the main thread piles up hundreds more, then the pool is
/// destroyed the moment the gate opens.  The destructor contract --
/// drain everything, lose nothing -- must hold on every iteration.
TEST(ThreadPoolStress, TeardownWhileQueueDeepDrainsEveryTask) {
  constexpr int kIterations = 10;
  constexpr int kWorkers = 4;
  constexpr int kQueued = 500;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    std::atomic<int> count{0};
    std::atomic<bool> gate{false};
    {
      ThreadPool pool(kWorkers);
      for (int i = 0; i < kWorkers; ++i) {
        (void)pool.submit([&] {
          while (!gate.load()) {
            std::this_thread::yield();
          }
          ++count;
        });
      }
      for (int i = 0; i < kQueued; ++i) {
        (void)pool.submit([&count] { ++count; });
      }
      gate.store(true);
    }  // destructor runs with (almost) the whole queue still pending
    ASSERT_EQ(count.load(), kWorkers + kQueued)
        << "iteration " << iteration << " dropped queued tasks";
  }
}

/// Many producers racing on enqueue while consumers drain: every
/// submitted task runs exactly once and every future resolves.
TEST(ThreadPoolStress, ConcurrentProducersNeverLoseOrDuplicateTasks) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 250;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> runs(kProducers * kPerProducer);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  std::vector<std::vector<std::future<void>>> futures(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([p, &pool, &runs, &futures] {
      auto& mine = futures[static_cast<std::size_t>(p)];
      mine.reserve(kPerProducer);
      for (int i = 0; i < kPerProducer; ++i) {
        const int slot = p * kPerProducer + i;
        mine.push_back(pool.submit(
            [&runs, slot] { ++runs[static_cast<std::size_t>(slot)]; }));
      }
    });
  }
  for (std::thread& producer : producers) {
    producer.join();
  }
  for (auto& mine : futures) {
    for (auto& future : mine) {
      future.get();
    }
  }
  for (const auto& cell : runs) {
    ASSERT_EQ(cell.load(), 1);
  }
}

/// The once-per-value bad-env warning under a thundering herd: N
/// threads racing default_thread_count() on the same fresh bad value
/// must produce exactly one warning (the warned-set insert and the
/// log_warn used to race before the set moved behind vwsdk::Mutex).
TEST(ThreadPoolStress, BadEnvWarnOnceSurvivesThunderingHerd) {
  ThreadsEnvGuard env_guard;
  WarningCapture capture;
  // A bad value no other test uses: the warned-set is process-wide.
  ASSERT_EQ(setenv("VWSDK_THREADS", "stress-herd", 1), 0);
  constexpr int kThreads = 16;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [] { EXPECT_GE(ThreadPool::default_thread_count(), 1); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(WarningCapture::messages().size(), 1u);
  EXPECT_NE(WarningCapture::messages()[0].find("stress-herd"),
            std::string::npos);
}

}  // namespace
}  // namespace vwsdk
