// The efes_serve request engine (DESIGN.md §14): sessions + admission +
// deadlines + per-request fault containment behind the line protocol of
// protocol.h.
//
// One EfesServer owns the session table, the admission controller and a
// watchdog thread, and passes its (optional) ProfileCache to every run
// it makes. Its frontend, ServeFd(in_fd, out_fd), feeds it request
// lines: poll()-driven, so a SIGTERM handler calling RequestShutdown()
// is noticed within one poll interval even while idle. It reads to EOF
// (or a `shutdown` request), then drains and flushes the cache snapshot.
//
// Robustness contract per request:
//   * containment — a malformed line, a bad scenario, an injected fault,
//     or a thrown exception degrades exactly one response (partial
//     report + degraded flag, or an error envelope); the session table,
//     the profile cache, and sibling requests never observe it.
//   * deadline — `deadline_ms` arms a CancelToken checked at batch
//     boundaries; expiry yields kDeadlineExceeded with no partial
//     result. A watchdog force-fails a request that blows through its
//     deadline plus grace without reaching a checkpoint (the worker's
//     late result is discarded, never sent).
//   * determinism — for a fixed request sequence, every response line is
//     byte-identical across thread counts and cache states; only line
//     *order* may vary (clients key on id).
//
// Fault points: `serve.cancel` (checkpoints, see common/deadline.h) and
// `serve.stall` (parks a request until cancelled — the watchdog test
// hook).

#ifndef EFES_SERVE_SERVER_H_
#define EFES_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "efes/cache/profile_cache.h"
#include "efes/common/deadline.h"
#include "efes/common/thread_annotations.h"
#include "efes/serve/admission.h"
#include "efes/serve/protocol.h"
#include "efes/serve/session.h"

namespace efes {

struct ServeOptions {
  /// Request worker threads.
  size_t workers = 4;
  /// Bounded admission queue (see admission.h).
  size_t max_queue = 64;
  /// Bounded session table.
  size_t max_sessions = 32;
  /// Deadline applied to requests that do not carry their own
  /// `deadline_ms`; 0 = none.
  uint64_t default_deadline_ms = 0;
  /// How long past its deadline a request may run before the watchdog
  /// force-fails it (the cooperative checkpoints normally fire first).
  uint64_t watchdog_grace_ms = 200;
  /// Server-lifetime profile cache, shared by every session's runs. May
  /// be null: then every run computes all of its profiles.
  ProfileCache* cache = nullptr;
  /// When nonempty, the cache snapshot is flushed here (atomically, via
  /// WriteFileAtomic) as part of every drain.
  std::string cache_save_path;
};

class EfesServer {
 public:
  explicit EfesServer(ServeOptions options);
  ~EfesServer();
  EfesServer(const EfesServer&) = delete;
  EfesServer& operator=(const EfesServer&) = delete;

  /// Pipe mode over file descriptors with a poll() loop; the frontend
  /// for the daemon. Returns after EOF, `shutdown` or RequestShutdown()
  /// (SIGTERM, noticed within one poll interval), once every in-flight
  /// request drained and the cache snapshot (if configured) flushed.
  Status ServeFd(int in_fd, int out_fd);

  /// Signals the serve loop to stop reading, drain, and return.
  /// Async-signal-safe (one relaxed atomic store).
  void RequestShutdown() {
    shutdown_requested_.store(true, std::memory_order_relaxed);
  }

 private:
  struct PendingRequest {
    std::string id;
    std::shared_ptr<CancelToken> token;
    std::atomic<bool> responded{false};
    /// Clock nanos after which the watchdog force-fails this request;
    /// CancelToken::kNoDeadline when the request has no deadline.
    int64_t force_fail_nanos = CancelToken::kNoDeadline;
  };

  using WriteLineFn = std::function<void(const std::string&)>;

  /// Parses and routes one request line. Inline ops (ping/stats/
  /// shutdown/errors) respond immediately; the rest are admitted.
  /// Returns true when the line was a `shutdown` request.
  bool HandleLine(const std::string& line, const WriteLineFn& write_line);

  /// Drains the admission queue and flushes the cache snapshot.
  void DrainAndFlush();

  /// Runs one admitted request on a worker: request faults + cancel
  /// token installed, op dispatched, response claimed against the
  /// watchdog.
  void RunRequest(const std::shared_ptr<PendingRequest>& pending,
                  const ServeRequest& request,
                  const WriteLineFn& write_line);

  ServeResponse HandleOpen(const ServeRequest& request);
  ServeResponse HandleEstimate(const ServeRequest& request);
  ServeResponse HandleAssess(const ServeRequest& request);
  ServeResponse HandleClose(const ServeRequest& request);
  ServeResponse HandleStats(const ServeRequest& request);

  /// Sends `response` unless the watchdog (or anyone else) already
  /// responded for `pending`.
  void Respond(const std::shared_ptr<PendingRequest>& pending,
               ServeResponse response, const WriteLineFn& write_line);

  void WatchdogLoop();
  void RegisterWithWatchdog(std::shared_ptr<PendingRequest> pending,
                            const WriteLineFn& write_line);

  const ServeOptions options_;
  SessionManager sessions_;
  AdmissionController admission_;

  std::atomic<bool> shutdown_requested_{false};
  bool drained_ = false;

  /// One response line at a time, whole: concurrent workers never
  /// interleave bytes within a line.
  std::mutex write_mutex_;

  struct WatchedRequest {
    std::shared_ptr<PendingRequest> pending;
    WriteLineFn write_line;
  };
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  std::vector<WatchedRequest> watched_ EFES_GUARDED_BY(watchdog_mutex_);
  bool watchdog_stop_ EFES_GUARDED_BY(watchdog_mutex_) = false;
  std::thread watchdog_;
};

}  // namespace efes

#endif  // EFES_SERVE_SERVER_H_
