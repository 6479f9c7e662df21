#include "efes/common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "efes/common/deadline.h"
#include "efes/common/fault.h"
#include "efes/common/clock.h"
#include "efes/common/metrics.h"
#include "efes/common/string_util.h"

namespace efes {

namespace {

/// Set for the lifetime of a pool worker thread, and on the calling
/// thread while it participates in a batch. Nested ParallelFor calls see
/// it and run inline instead of re-entering the (possibly exhausted) pool.
thread_local bool tls_in_parallel_region = false;

std::atomic<size_t> g_thread_override{0};

/// Per-pool telemetry. `batches` and `items` are scheduling-independent
/// (identical for any thread count on the same input); everything under
/// `parallel.pool.` describes how the work was distributed and timed, so
/// the determinism tests exclude that prefix.
struct PoolTelemetry {
  Counter& batches;
  Counter& items;
  Counter& tasks_scheduled;
  Gauge& threads;
  Histogram& worker_items;
  Histogram& worker_busy_ms;
  Histogram& worker_idle_ms;
};

PoolTelemetry& Telemetry() {
  static PoolTelemetry* telemetry = [] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    static const std::vector<double> item_bounds = {
        1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384, 65536};
    // EFES_LINT_ALLOW(banned-function): process-lifetime telemetry handles, leaked on purpose
    return new PoolTelemetry{
        registry.GetCounter("parallel.batches"),
        registry.GetCounter("parallel.items"),
        registry.GetCounter("parallel.pool.tasks_scheduled"),
        registry.GetGauge("parallel.pool.threads"),
        registry.GetHistogram("parallel.pool.worker_items", item_bounds),
        registry.GetHistogram("parallel.pool.worker_busy_ms"),
        registry.GetHistogram("parallel.pool.worker_idle_ms"),
    };
  }();
  return *telemetry;
}

/// Runs one task index, converting escaped exceptions into Status so the
/// pool (and the exception-free library convention) never sees a throw.
/// Fault point: `parallel.task` (arm with `throw` to exercise this very
/// conversion path).
Status RunOne(const std::function<Status(size_t)>& task, size_t index) {
  try {
    EFES_RETURN_IF_ERROR(CheckFaultPoint("parallel.task"));
    return task(index);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("exception in parallel task: ") +
                            e.what());
  } catch (...) {
    return Status::Internal("unknown exception in parallel task");
  }
}

/// The shared pool, rebuilt when the configured thread count changes
/// between batches. Callers hold a shared_ptr for the batch duration, so
/// a resize never destroys a pool that is still executing.
std::shared_ptr<ThreadPool> AcquireSharedPool(size_t worker_count) {
  // EFES_LINT_ALLOW(banned-function): pool guard mutex must outlive every worker; leaked on purpose
  static std::mutex* mutex = new std::mutex();
  static std::shared_ptr<ThreadPool>* pool =
      // EFES_LINT_ALLOW(banned-function): shared pool slot must outlive every worker; leaked on purpose
      new std::shared_ptr<ThreadPool>();
  std::lock_guard<std::mutex> lock(*mutex);
  if (*pool == nullptr || (*pool)->worker_count() != worker_count) {
    *pool = std::make_shared<ThreadPool>(worker_count);
  }
  return *pool;
}

}  // namespace

size_t HardwareConcurrency() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

size_t ConfiguredThreadCount() {
  size_t override_count = g_thread_override.load(std::memory_order_relaxed);
  if (override_count > 0) return override_count;
  if (const char* env = std::getenv("EFES_THREADS")) {
    const std::optional<uint64_t> value = ParseUint64(env);
    if (value.has_value() && *value > 0 &&
        *value <= std::numeric_limits<size_t>::max()) {
      return static_cast<size_t>(*value);
    }
  }
  return HardwareConcurrency();
}

void SetThreadCountOverride(size_t threads) {
  g_thread_override.store(threads, std::memory_order_relaxed);
}

bool InParallelRegion() { return tls_in_parallel_region; }

ThreadPool::ThreadPool(size_t worker_count) {
  workers_.reserve(worker_count);
  for (size_t i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::WorkerLoop() {
  tls_in_parallel_region = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain the queue before honoring stop so ~ThreadPool never drops
      // submitted work.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

Status ParallelFor(size_t count,
                   const std::function<Status(size_t)>& task) {
  // Cancellation checkpoint at the batch boundary, on the calling thread,
  // *before* any item runs: a cancelled batch produces no partial merge,
  // so output stays byte-identical whenever the run completes at all.
  EFES_RETURN_IF_ERROR(CheckCancellation());
  PoolTelemetry& telemetry = Telemetry();
  telemetry.batches.Increment();
  telemetry.items.Increment(count);
  const size_t threads = ConfiguredThreadCount();
  telemetry.threads.Set(static_cast<double>(threads));
  if (count == 0) return Status::OK();

  // One runner per thread, at most one per index. A nested region gets
  // one runner, the calling thread, which already runs a share of an
  // outer batch. A batch with one runner (one thread, one index, or
  // nested) takes the same loop, without the pool.
  const size_t runners =
      tls_in_parallel_region ? 1 : std::min(threads, count);
  // Every runner works under the cancel token and request faults the
  // caller had at batch entry, so a task sees the same request context
  // on whichever thread runs it.
  CancelToken* const token = ActiveCancelToken();
  FaultRegistry* const request_faults = ActiveRequestFaults();
  const Clock& clock = *Clock::Default();
  const int64_t batch_start_nanos = clock.NowNanos();

  struct RunnerStats {
    size_t items = 0;
    double busy_ms = 0.0;
  };
  std::vector<RunnerStats> stats(runners);
  std::atomic<size_t> next_index{0};

  // Failures are rare; every index always runs so the reported error (the
  // lowest failing index), the work done and the fault points hit do not
  // depend on the thread count or scheduling order.
  std::mutex error_mutex;
  size_t first_error_index = std::numeric_limits<size_t>::max();
  Status first_error = Status::OK();

  auto run_batch_share = [&](size_t runner) {
    ScopedCancelToken scoped_token(token);
    ScopedRequestFaults scoped_faults(request_faults);
    const bool was_in_region = tls_in_parallel_region;
    tls_in_parallel_region = true;
    const int64_t start_nanos = clock.NowNanos();
    size_t processed = 0;
    size_t i;
    while ((i = next_index.fetch_add(1, std::memory_order_relaxed)) <
           count) {
      Status status = RunOne(task, i);
      ++processed;
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = std::move(status);
        }
      }
    }
    stats[runner].items = processed;
    stats[runner].busy_ms =
        static_cast<double>(clock.NowNanos() - start_nanos) / 1e6;
    tls_in_parallel_region = was_in_region;
  };

  std::mutex done_mutex;
  std::condition_variable done_cv;
  size_t done_runners = 0;
  std::shared_ptr<ThreadPool> pool;
  if (runners > 1) pool = AcquireSharedPool(threads - 1);
  for (size_t runner = 1; runner < runners; ++runner) {
    pool->Submit([&, runner] {
      run_batch_share(runner);
      // Notify under the lock: done_cv lives on the caller's stack, and
      // signalling after unlock would race the caller waking, returning,
      // and destroying it.
      std::lock_guard<std::mutex> lock(done_mutex);
      ++done_runners;
      done_cv.notify_one();
    });
  }
  telemetry.tasks_scheduled.Increment(runners - 1);

  run_batch_share(0);
  {
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return done_runners == runners - 1; });
  }

  const double batch_wall_ms =
      static_cast<double>(clock.NowNanos() - batch_start_nanos) / 1e6;
  for (const RunnerStats& runner_stats : stats) {
    telemetry.worker_items.Observe(static_cast<double>(runner_stats.items));
    telemetry.worker_busy_ms.Observe(runner_stats.busy_ms);
    telemetry.worker_idle_ms.Observe(
        std::max(0.0, batch_wall_ms - runner_stats.busy_ms));
  }

  if (first_error_index != std::numeric_limits<size_t>::max()) {
    return first_error;
  }
  return Status::OK();
}

}  // namespace efes
