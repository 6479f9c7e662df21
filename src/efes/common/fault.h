// Deterministic fault injection for robustness testing (DESIGN.md,
// "Failure handling & degraded modes").
//
// Production code marks the places where the outside world can fail —
// file opens, renames, module boundaries, parallel tasks — as named
// *fault points*:
//
//   EFES_RETURN_IF_ERROR(CheckFaultPoint("csv.read"));
//
// A disarmed point is a single relaxed atomic load; nothing is
// registered, counted, or allocated, so shipping the checks costs
// effectively nothing and output stays bit-identical to an uninstrumented
// build. Arming a point (CLI `--inject-fault=<point>[:spec]`, environment
// `EFES_FAULTS=<spec>;<spec>`, or FaultRegistry::Arm in tests) makes the
// check fail according to a deterministic trigger spec, which is how the
// fault-injection test matrix exercises every degraded path without
// flaky timing or real disk errors.
//
// Spec grammar (comma-separated options after the point name):
//   csv.read                fire on every hit (code: unavailable)
//   csv.read:once           fire on the first hit only
//   csv.read:n=3            fire on the 3rd hit only
//   csv.read:count=2        fire on the first 2 hits (then recover —
//                           exercises retry paths)
//   csv.read:p=0.5,seed=7   fire per hit with probability 0.5, drawn from
//                           a dedicated PRNG seeded with 7 (deterministic
//                           across runs and platforms)
//   csv.read:throw          fire by throwing std::runtime_error instead of
//                           returning Status (exception-containment paths)
//   csv.read:code=notfound  fire with a specific status code
//                           (unavailable|internal|notfound|parse|resource)
//
// Hits and fires are counted per point into the telemetry registry as
// `fault.<point>.hits` / `fault.<point>.fired` (only once armed).

#ifndef EFES_COMMON_FAULT_H_
#define EFES_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "efes/common/status.h"
#include "efes/common/thread_annotations.h"

namespace efes {

/// Trigger description for one armed fault point.
struct FaultSpec {
  /// How many hits have to happen before the first fire (1 = fire on the
  /// first hit).
  uint64_t first_hit = 1;
  /// Number of hits that fire starting at `first_hit`; 0 means unlimited.
  uint64_t fire_count = 0;
  /// Per-hit fire probability in [0, 1]; 1.0 fires deterministically.
  double probability = 1.0;
  /// Seed of the per-point PRNG used when probability < 1.
  uint64_t seed = 1;
  /// When set, the point throws std::runtime_error instead of returning a
  /// Status — exercises exception-containment paths.
  bool throws = false;
  /// Status code of the injected error (ignored when `throws`).
  StatusCode code = StatusCode::kUnavailable;
};

/// Process-wide registry of armed fault points. Thread-safe; the
/// nothing-armed fast path is one relaxed atomic load.
class FaultRegistry {
 public:
  /// Registries are also constructible standalone, for request-scoped
  /// fault sets (ScopedRequestFaults). Out-of-line special members:
  /// ArmedPoint is an incomplete type here.
  FaultRegistry();
  ~FaultRegistry();
  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  static FaultRegistry& Global();

  /// Arms `point` with `spec`, replacing any previous arming.
  void Arm(std::string point, FaultSpec spec);

  /// Parses and arms one "point[:opt,...]" spec (grammar above).
  Status ArmFromString(std::string_view spec);

  /// Arms every ';'-separated spec in `text` (the EFES_FAULTS format).
  Status ArmFromList(std::string_view text);

  /// Disarms every point and resets hit counts.
  void DisarmAll();

  bool AnyArmed() const {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  /// Names of currently armed points, sorted.
  std::vector<std::string> ArmedPoints() const;

  /// Records a hit at `point`. Returns a non-OK status (or throws, for
  /// `throw` specs) when the armed trigger fires; OK otherwise, including
  /// for every point that is not armed.
  Status Check(std::string_view point);

  /// Total hits observed at `point` since arming (0 if not armed).
  uint64_t HitCount(std::string_view point) const;

 private:
  struct ArmedPoint;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<ArmedPoint>, std::less<>> points_
      EFES_GUARDED_BY(mutex_);
  std::atomic<size_t> armed_count_{0};
};

/// The calling thread's request-scoped registry (see ScopedRequestFaults),
/// or nullptr.
FaultRegistry* ActiveRequestFaults();

/// Installs a request-scoped fault registry on the calling thread for the
/// scope. CheckFaultPoint consults it *in addition to* the process-global
/// registry, so a server can arm faults for one request without them
/// leaking into sibling requests running on other worker threads.
///
/// Thread-local by design: checkpoints see the registry installed on
/// their thread. ParallelFor (common/parallel.h) hands it on: every
/// runner of a batch, pool threads included, installs the registry the
/// caller had at batch entry, so the request's own tasks hit its points
/// (`parallel.task` too) and no sibling request's tasks do. A batch runs
/// every index, so the hits it counts do not depend on the thread count.
class ScopedRequestFaults {
 public:
  explicit ScopedRequestFaults(FaultRegistry* registry);
  ~ScopedRequestFaults();
  ScopedRequestFaults(const ScopedRequestFaults&) = delete;
  ScopedRequestFaults& operator=(const ScopedRequestFaults&) = delete;

 private:
  FaultRegistry* previous_;
};

/// The check production code places at a fault point. Near-zero cost
/// while nothing is armed anywhere: one thread-local read plus one
/// relaxed atomic load.
inline Status CheckFaultPoint(std::string_view point) {
  if (FaultRegistry* request = ActiveRequestFaults();
      request != nullptr && request->AnyArmed()) {
    EFES_RETURN_IF_ERROR(request->Check(point));
  }
  FaultRegistry& registry = FaultRegistry::Global();
  if (!registry.AnyArmed()) return Status::OK();
  return registry.Check(point);
}

}  // namespace efes

#endif  // EFES_COMMON_FAULT_H_
