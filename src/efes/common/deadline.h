// Cooperative cancellation and deadlines (DESIGN.md §14, "Server mode").
//
// Long-running estimation work — a CLI invocation under --timeout-ms, a
// server request under a per-request deadline — is bounded by a
// CancelToken. The token is *cooperative*: nothing is interrupted
// preemptively. Instead, work calls CheckCancellation() at batch
// boundaries (ParallelFor entry, the engine's per-module loop) and
// unwinds with kCancelled/kDeadlineExceeded when the token has tripped.
// Because every checkpoint sits on the calling thread at a batch
// boundary — never inside the canonical-order merge — a run either fails
// whole or completes byte-identically to an uncancelled run; it is never
// torn.
//
// The active token is installed per thread with ScopedCancelToken. It
// stays thread-local rather than joining the run's explicit RunContext
// (core/module.h), because it is read only at checkpoints, never by the
// estimation itself (DESIGN.md §14, "Per-run state"). ParallelFor
// (common/parallel.h) hands it on: every runner of a batch, pool threads
// included, installs the token the caller had at batch entry, so a
// checkpoint inside a task answers to the caller's deadline. A failed
// checkpoint fails its task, and a batch runs every index and returns
// the lowest failing index's error, so which items completed never
// leaks into results.
//
// Deadlines are measured against a telemetry Clock so tests can trip
// them with a FakeClock instead of sleeping. A deadline of 0 ms is
// already expired: the first checkpoint fails, deterministically.
//
// Fault point: `serve.cancel` — fires as a cancellation (kCancelled) at
// the n-th checkpoint, which is how the cancellation-correctness
// property test walks every batch boundary.

#ifndef EFES_COMMON_DEADLINE_H_
#define EFES_COMMON_DEADLINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>

#include "efes/common/status.h"
#include "efes/common/thread_annotations.h"

namespace efes {

class Clock;

/// Shared cancellation state between a driver (CLI main, a server
/// watchdog) and the work it bounds. Thread-safe; the not-cancelled fast
/// path is one relaxed atomic load plus, when a deadline is set, one
/// clock read.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Arms a deadline `deadline_ms` from now on `clock` (nullptr =
  /// Clock::Default()). 0 ms means already expired — the next Check()
  /// fails. Call at most once, before sharing the token.
  void SetDeadline(uint64_t deadline_ms, const Clock* clock = nullptr);

  /// Cancels with `reason` (must be non-OK). First cancel wins; later
  /// calls are no-ops. Wakes every WaitCancelled() waiter.
  void Cancel(Status reason);

  /// True once Cancel() ran or a Check() latched an expired deadline.
  [[nodiscard]] bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// OK while live; otherwise the latched cancellation reason. Checks
  /// the deadline and latches kDeadlineExceeded on expiry, so polling
  /// Check() is how deadlines actually trip.
  Status Check();

  /// The latched reason (OK if not cancelled). Does not poll the
  /// deadline — use Check() for that.
  [[nodiscard]] Status status() const;

  /// Blocks until Cancel() runs (or already ran), for at most
  /// `max_wait_ms`; returns true when the token is cancelled. Does NOT
  /// poll the deadline — a parked request is failed by its watchdog's
  /// Cancel, with the watchdog's fixed reason, so response bytes never
  /// depend on who noticed an expired deadline first. Never waits
  /// unboundedly: this is the one blocking primitive fault-stalled
  /// server requests are allowed to park on.
  bool WaitCancelled(uint64_t max_wait_ms);

  [[nodiscard]] bool has_deadline() const {
    return deadline_nanos_.load(std::memory_order_relaxed) != kNoDeadline;
  }

  /// Absolute deadline in clock nanos; kNoDeadline when unset. The
  /// server watchdog compares this against Clock::NowNanos().
  [[nodiscard]] int64_t deadline_nanos() const {
    return deadline_nanos_.load(std::memory_order_relaxed);
  }

  static constexpr int64_t kNoDeadline = std::numeric_limits<int64_t>::max();

 private:
  const Clock* clock_ = nullptr;
  std::atomic<int64_t> deadline_nanos_{kNoDeadline};
  std::atomic<bool> cancelled_{false};
  mutable std::mutex mutex_;
  std::condition_variable cancelled_cv_;
  Status reason_ EFES_GUARDED_BY(mutex_);  // Valid once cancelled_.
};

/// Installs `token` as the calling thread's active token for the scope.
/// Nesting replaces (inner wins) and restores on exit.
class ScopedCancelToken {
 public:
  explicit ScopedCancelToken(CancelToken* token);
  ~ScopedCancelToken();
  ScopedCancelToken(const ScopedCancelToken&) = delete;
  ScopedCancelToken& operator=(const ScopedCancelToken&) = delete;

 private:
  CancelToken* previous_;
};

/// The calling thread's active token, or nullptr.
CancelToken* ActiveCancelToken();

/// The checkpoint work places at batch boundaries. Near-zero cost with
/// no token installed and no fault armed. Checks the `serve.cancel`
/// fault point first (normalised to kCancelled, and latched into the
/// active token so later checkpoints stay tripped), then the active
/// token's cancelled/deadline state.
Status CheckCancellation();

}  // namespace efes

#endif  // EFES_COMMON_DEADLINE_H_
