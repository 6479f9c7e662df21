// Unit tests for the parallel-execution layer (common/parallel.h):
// thread-count resolution, edge-case ranges, ordered results, error and
// exception semantics (every index runs at every thread count), the
// caller's request context on pool threads, nesting, and queue draining
// on pool destruction.

#include "efes/common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "efes/common/deadline.h"
#include "efes/common/fault.h"

namespace efes {
namespace {

/// Restores the default thread count when a test returns.
struct ThreadOverrideGuard {
  explicit ThreadOverrideGuard(size_t threads) {
    SetThreadCountOverride(threads);
  }
  ~ThreadOverrideGuard() { SetThreadCountOverride(0); }
};

TEST(ThreadCountTest, OverrideWinsAndClears) {
  {
    ThreadOverrideGuard guard(3);
    EXPECT_EQ(ConfiguredThreadCount(), 3u);
  }
  EXPECT_GE(ConfiguredThreadCount(), 1u);
}

TEST(ThreadCountTest, HardwareConcurrencyIsPositive) {
  EXPECT_GE(HardwareConcurrency(), 1u);
}

TEST(ParallelForTest, EmptyRangeRunsNothing) {
  ThreadOverrideGuard guard(4);
  std::atomic<size_t> calls{0};
  Status status = ParallelFor(0, [&](size_t) -> Status {
    calls.fetch_add(1);
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls.load(), 0u);
}

TEST(ParallelForTest, SingleItemRunsOnce) {
  ThreadOverrideGuard guard(8);
  std::atomic<size_t> calls{0};
  Status status = ParallelFor(1, [&](size_t i) -> Status {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1);
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls.load(), 1u);
}

TEST(ParallelForTest, FewerItemsThanWorkersVisitsEveryIndexOnce) {
  ThreadOverrideGuard guard(8);
  std::vector<std::atomic<int>> visits(3);
  Status status = ParallelFor(3, [&](size_t i) -> Status {
    visits[i].fetch_add(1);
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  for (const std::atomic<int>& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForTest, ReportsLowestFailingIndex) {
  ThreadOverrideGuard guard(4);
  Status status = ParallelFor(64, [&](size_t i) -> Status {
    if (i == 7 || i == 3 || i == 50) {
      return Status::InvalidArgument("failed at " + std::to_string(i));
    }
    return Status::OK();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "failed at 3");
}

TEST(ParallelForTest, SequentialPathReportsFirstError) {
  ThreadOverrideGuard guard(1);
  size_t calls = 0;
  Status status = ParallelFor(10, [&](size_t i) -> Status {
    ++calls;
    if (i == 2) return Status::NotFound("stop");
    return Status::OK();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  // One runner still runs every index, as a pool of them does.
  EXPECT_EQ(calls, 10u);
}

TEST(ParallelForTest, EveryIndexRunsWhenOneFails) {
  for (size_t threads : {1, 2, 8}) {
    ThreadOverrideGuard guard(threads);
    std::vector<std::atomic<int>> visits(64);
    Status status = ParallelFor(64, [&](size_t i) -> Status {
      visits[i].fetch_add(1);
      if (i == 5 || i == 40) {
        return Status::NotFound("failed at " + std::to_string(i));
      }
      return Status::OK();
    });
    EXPECT_EQ(status.message(), "failed at 5") << threads << " threads";
    for (const std::atomic<int>& v : visits) EXPECT_EQ(v.load(), 1);
  }
}

TEST(ParallelForTest, NestedRegionRunsEveryIndexWhenOneFails) {
  for (size_t threads : {1, 2, 8}) {
    ThreadOverrideGuard guard(threads);
    std::atomic<size_t> inner_calls{0};
    Status status = ParallelFor(4, [&](size_t) -> Status {
      return ParallelFor(8, [&](size_t j) -> Status {
        inner_calls.fetch_add(1);
        return j == 1 ? Status::NotFound("inner") : Status::OK();
      });
    });
    EXPECT_EQ(status.code(), StatusCode::kNotFound) << threads << " threads";
    EXPECT_EQ(inner_calls.load(), 32u) << threads << " threads";
  }
}

/// What one task saw: its thread and the request context active there.
struct TaskView {
  std::thread::id thread;
  CancelToken* token = nullptr;
  FaultRegistry* faults = nullptr;
};

/// Runs a two-index batch on two runners whose tasks each wait (bounded)
/// until both have started, so one of them runs on a pool thread.
std::vector<TaskView> TwoRunnerViews() {
  ThreadOverrideGuard guard(2);
  std::vector<TaskView> views(2);
  std::atomic<int> started{0};
  Status status = ParallelFor(2, [&](size_t i) -> Status {
    started.fetch_add(1);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (started.load() < 2 && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    views[i] = {std::this_thread::get_id(), ActiveCancelToken(),
                ActiveRequestFaults()};
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  return views;
}

TEST(ParallelForTest, PoolTasksSeeTheCallersRequestContext) {
  CancelToken token;
  FaultRegistry request_faults;
  {
    ScopedCancelToken scoped_token(&token);
    ScopedRequestFaults scoped_faults(&request_faults);
    const std::vector<TaskView> views = TwoRunnerViews();
    EXPECT_NE(views[0].thread, views[1].thread);
    for (const TaskView& view : views) {
      EXPECT_EQ(view.token, &token);
      EXPECT_EQ(view.faults, &request_faults);
    }
  }
  // The pool thread gave the context back with its share of the batch.
  for (const TaskView& view : TwoRunnerViews()) {
    EXPECT_EQ(view.token, nullptr);
    EXPECT_EQ(view.faults, nullptr);
  }
}

TEST(ParallelForTest, RequestFaultsCountEveryTaskAtAnyThreadCount) {
  for (size_t threads : {1, 2, 8}) {
    ThreadOverrideGuard guard(threads);
    FaultRegistry request_faults;
    ASSERT_TRUE(request_faults.ArmFromString("parallel.task:n=3").ok());
    ScopedRequestFaults scoped_faults(&request_faults);
    Status status =
        ParallelFor(64, [](size_t) -> Status { return Status::OK(); });
    EXPECT_EQ(status.code(), StatusCode::kUnavailable)
        << threads << " threads";
    EXPECT_EQ(request_faults.HitCount("parallel.task"), 64u)
        << threads << " threads";
  }
}

TEST(ParallelForTest, ExceptionsBecomeInternalStatus) {
  ThreadOverrideGuard guard(4);
  Status status = ParallelFor(16, [&](size_t i) -> Status {
    if (i == 5) throw std::runtime_error("boom");
    return Status::OK();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("exception in parallel task"),
            std::string::npos);
  EXPECT_NE(status.message().find("boom"), std::string::npos);
}

TEST(ParallelForTest, NonStdExceptionsBecomeInternalStatus) {
  ThreadOverrideGuard guard(2);
  Status status = ParallelFor(4, [&](size_t i) -> Status {
    if (i == 1) throw 42;
    return Status::OK();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(ParallelForTest, NestedRegionsCompleteWithoutDeadlock) {
  ThreadOverrideGuard guard(2);
  std::atomic<size_t> inner_calls{0};
  Status status = ParallelFor(8, [&](size_t) -> Status {
    EXPECT_TRUE(InParallelRegion());
    return ParallelFor(8, [&](size_t) -> Status {
      inner_calls.fetch_add(1);
      return Status::OK();
    });
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(inner_calls.load(), 64u);
}

TEST(ParallelForTest, NotInRegionOutsideBatch) {
  EXPECT_FALSE(InParallelRegion());
}

TEST(ParallelMapTest, ResultsArriveInIndexOrder) {
  ThreadOverrideGuard guard(8);
  auto result = ParallelMap(1000, [](size_t i) { return i * i; });
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1000u);
  for (size_t i = 0; i < result->size(); ++i) {
    EXPECT_EQ((*result)[i], i * i);
  }
}

TEST(ParallelMapTest, IdenticalForAnyThreadCount) {
  std::vector<std::vector<size_t>> runs;
  for (size_t threads : {1, 2, 8}) {
    ThreadOverrideGuard guard(threads);
    auto result = ParallelMap(257, [](size_t i) { return i * 31 + 7; });
    ASSERT_TRUE(result.ok());
    runs.push_back(std::move(*result));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(ParallelMapTest, PropagatesTaskException) {
  ThreadOverrideGuard guard(4);
  auto result = ParallelMap(8, [](size_t i) -> int {
    if (i == 2) throw std::runtime_error("map boom");
    return static_cast<int>(i);
  });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(ThreadPoolTest, DrainsQueueOnDestruction) {
  std::atomic<size_t> executed{0};
  {
    ThreadPool pool(2);
    for (size_t i = 0; i < 100; ++i) {
      pool.Submit([&] { executed.fetch_add(1); });
    }
  }  // ~ThreadPool joins after draining.
  EXPECT_EQ(executed.load(), 100u);
}

TEST(ThreadPoolTest, WorkerCountIsAsRequested) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
}

TEST(ThreadPoolTest, WorkersAreInParallelRegion) {
  std::atomic<bool> in_region{false};
  {
    ThreadPool pool(1);
    pool.Submit([&] { in_region.store(InParallelRegion()); });
  }
  EXPECT_TRUE(in_region.load());
}

}  // namespace
}  // namespace efes
