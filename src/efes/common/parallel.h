// The EFES parallel-execution layer: a fixed-size shared thread pool and
// the ParallelFor / ParallelMap primitives every hot path runs through.
//
// Design contract (see DESIGN.md, "Parallel execution"):
//   * Determinism. Work is partitioned by index, every task writes only
//     its own index-addressed slot, and callers merge results in canonical
//     index order — never in completion order. The output of a parallel
//     region is therefore bit-identical for any thread count, including 1.
//   * Thread count. Resolved as: SetThreadCountOverride() (the CLI's
//     --threads=N) > the EFES_THREADS environment variable > hardware
//     concurrency. It decides how many runners share a batch, nothing
//     else: a count of 1 runs the same loop on the calling thread alone,
//     without the pool.
//   * Errors. Tasks report failures as Status; exceptions escaping a task
//     are captured and converted to StatusCode::kInternal. Every index
//     runs, also after a failure, and ParallelFor returns the error of
//     the *lowest* failing index, so failures are as deterministic as
//     successes.
//   * Request context. Every runner installs the cancel token and the
//     request fault registry that were active on the calling thread at
//     batch entry (common/deadline.h, common/fault.h), so a task sees its
//     caller's on whichever thread it runs.
//   * Nesting. A ParallelFor issued from inside a pool task runs inline
//     on the current thread, so nested parallel regions cannot deadlock
//     the fixed-size pool.

#ifndef EFES_COMMON_PARALLEL_H_
#define EFES_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "efes/common/result.h"
#include "efes/common/thread_annotations.h"

namespace efes {

/// std::thread::hardware_concurrency, floored at 1.
size_t HardwareConcurrency();

/// The thread count parallel regions run with: the programmatic override
/// if set, else a positive integer EFES_THREADS environment value, else
/// HardwareConcurrency().
size_t ConfiguredThreadCount();

/// Sets (threads >= 1) or clears (threads == 0) the process-wide thread
/// count override. The shared pool is resized lazily on the next parallel
/// region.
void SetThreadCountOverride(size_t threads);

/// True while the calling thread is executing inside a parallel region
/// (a pool worker, or the caller while it participates in a batch).
/// ParallelFor uses this to run nested regions inline.
bool InParallelRegion();

/// A fixed set of worker threads consuming a FIFO task queue. The
/// destructor drains the queue and joins every worker. Most code should
/// use ParallelFor/ParallelMap, which share one lazily-(re)built pool
/// sized to ConfiguredThreadCount() - 1 workers (the caller participates
/// as the remaining executor).
class ThreadPool {
 public:
  explicit ThreadPool(size_t worker_count);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t worker_count() const { return workers_.size(); }

  /// Enqueues a task. Tasks must not block on other submitted tasks;
  /// parallel regions built on Submit get nesting safety from
  /// InParallelRegion(), raw submitters are on their own.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_ EFES_GUARDED_BY(mutex_);
  bool stop_ EFES_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

/// Runs `task(i)` for every i in [0, count), distributing indices over
/// ConfiguredThreadCount() threads (dynamic load balancing; the calling
/// thread participates) under the caller's cancel token and request
/// faults. Every index runs, whatever fails. Returns OK when every task
/// succeeded, otherwise the Status of the lowest failing index. With one
/// thread, one index, or from inside a parallel region, the indices run
/// in order on the calling thread.
Status ParallelFor(size_t count, const std::function<Status(size_t)>& task);

/// Maps [0, count) through `fn`, returning the results in index order.
/// T = decltype(fn(size_t)) must be default-constructible. Determinism
/// and error semantics are those of ParallelFor.
template <typename Fn>
auto ParallelMap(size_t count, const Fn& fn)
    -> Result<std::vector<std::decay_t<std::invoke_result_t<Fn, size_t>>>> {
  using T = std::decay_t<std::invoke_result_t<Fn, size_t>>;
  std::vector<T> results(count);
  Status status = ParallelFor(count, [&](size_t i) -> Status {
    results[i] = fn(i);
    return Status::OK();
  });
  if (!status.ok()) return status;
  return results;
}

}  // namespace efes

#endif  // EFES_COMMON_PARALLEL_H_
