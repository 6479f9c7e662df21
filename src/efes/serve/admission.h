// Admission control for efes_serve (DESIGN.md §14): a bounded queue in
// front of a fixed worker pool, with per-session FIFO strands.
//
// Overload is shed at the door: once `max_queue` admitted-but-unstarted
// tasks pile up, Admit refuses with kResourceExhausted and the caller
// attaches a Retry-After hint — the queue never grows unboundedly, and a
// slow request cannot take the whole server down with it.
//
// Strands serialize same-session requests in arrival order (an
// `estimate` admitted after its session's `open` runs after that open
// finished, even with idle workers), which is what makes concurrent
// mixed workloads deterministic per request id. Requests on different
// strands run concurrently, `explain` estimates included: each run
// carries its own recorder and profiling state (RunContext,
// core/module.h), so no request needs the server to itself.
//
// Drain is two-phase: BeginDrain() makes every further Admit fail with
// kUnavailable (the "refuse new work" half of graceful shutdown);
// AwaitDrain() blocks until everything admitted has finished and the
// workers have exited.

#ifndef EFES_SERVE_ADMISSION_H_
#define EFES_SERVE_ADMISSION_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "efes/common/status.h"
#include "efes/common/thread_annotations.h"

namespace efes {

struct AdmissionOptions {
  /// Request worker threads (distinct from the ParallelFor pool the
  /// estimation work inside a request fans out to).
  size_t workers = 4;
  /// Maximum admitted-but-not-yet-started tasks before overload
  /// shedding kicks in. Running tasks do not count (they are bounded by
  /// `workers`).
  size_t max_queue = 64;
  /// The Retry-After hint attached to overload rejections, fixed so
  /// rejection responses stay byte-deterministic.
  int64_t retry_after_ms = 50;
};

class AdmissionController {
 public:
  using Task = std::function<void()>;

  explicit AdmissionController(AdmissionOptions options);
  ~AdmissionController();
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Admits `task` for asynchronous execution. Tasks sharing a non-empty
  /// `strand` run one at a time in admission order. Fails with
  /// kUnavailable after BeginDrain() and kResourceExhausted on overload —
  /// the task is then NOT executed.
  Status Admit(std::string strand, Task task);

  /// Stops admitting (kUnavailable from here on). Idempotent, cheap,
  /// safe from any thread — including a poll loop reacting to SIGTERM.
  void BeginDrain();

  /// BeginDrain() + blocks until every admitted task finished and the
  /// workers exited. Call exactly once before destruction (the
  /// destructor calls it as a backstop).
  void AwaitDrain();

  [[nodiscard]] bool draining() const;
  [[nodiscard]] size_t queued() const;
  [[nodiscard]] int64_t retry_after_ms() const {
    return options_.retry_after_ms;
  }

 private:
  struct Queued {
    Task task;
    std::string strand;
  };

  void WorkerLoop();

  const AdmissionOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // workers: ready_ nonempty or stop_
  // AwaitDrain: outstanding_ == 0.
  std::condition_variable idle_cv_ EFES_GUARDED_BY(mutex_);
  std::deque<Queued> ready_ EFES_GUARDED_BY(mutex_);
  /// Tasks waiting behind their strand's currently queued/running task.
  std::map<std::string, std::deque<Queued>> strand_waiting_
      EFES_GUARDED_BY(mutex_);
  /// Strands with a task in ready_ or executing.
  std::set<std::string> strand_active_ EFES_GUARDED_BY(mutex_);
  // Admitted-not-started / admitted-not-finished counts.
  size_t queued_count_ EFES_GUARDED_BY(mutex_) = 0;
  size_t outstanding_ EFES_GUARDED_BY(mutex_) = 0;
  bool draining_ EFES_GUARDED_BY(mutex_) = false;
  bool stop_ EFES_GUARDED_BY(mutex_) = false;
  bool joined_ EFES_GUARDED_BY(mutex_) = false;

  std::vector<std::thread> workers_;
};

}  // namespace efes

#endif  // EFES_SERVE_ADMISSION_H_
