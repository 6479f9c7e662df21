#include "efes/serve/server.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <utility>

#include "efes/common/fault.h"
#include "efes/common/json_writer.h"
#include "efes/common/string_util.h"
#include "efes/experiment/default_pipeline.h"
#include "efes/experiment/json_export.h"
#include "efes/provenance/provenance.h"
#include "efes/provenance/render.h"
#include "efes/common/clock.h"
#include "efes/common/metrics.h"
#include "efes/telemetry/trace.h"

namespace efes {
namespace {

constexpr char kDrainRefusal[] =
    "server is draining and refuses new requests";
/// Fixed force-fail message: watchdog responses must stay byte-identical
/// across runs, so no elapsed times or module names in here.
constexpr char kWatchdogMessage[] =
    "deadline expired mid-module; the watchdog discarded the result";
/// The Retry-After hint on overload rejections, fixed so rejection
/// responses stay byte-deterministic.
constexpr int64_t kOverloadRetryAfterMs = 50;

Counter& ServeCounter(const char* name) {
  return MetricsRegistry::Global().GetCounter(name);
}

ExpectedQuality QualityFromRequest(const ServeRequest& request) {
  return request.quality == "low" ? ExpectedQuality::kLowEffort
                                  : ExpectedQuality::kHighQuality;
}

}  // namespace

EfesServer::EfesServer(ServeOptions options) : options_(std::move(options)),
                                               sessions_(options_.max_sessions),
                                               admission_(AdmissionOptions{
                                                   options_.workers,
                                                   options_.max_queue}) {
  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

EfesServer::~EfesServer() {
  DrainAndFlush();
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

Status EfesServer::ServeFd(int in_fd, int out_fd) {
  WriteLineFn write_line = [this, out_fd](const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mutex_);
    std::string buffer = line;
    buffer.push_back('\n');
    size_t offset = 0;
    while (offset < buffer.size()) {
      ssize_t written =
          ::write(out_fd, buffer.data() + offset, buffer.size() - offset);
      if (written < 0) {
        if (errno == EINTR) continue;
        return;  // client hung up; drop the rest of this line
      }
      offset += static_cast<size_t>(written);
    }
  };
  std::string pending_input;
  bool shutting_down = false;
  auto handle_buffered = [&](bool at_eof) {
    size_t start = 0;
    for (;;) {
      size_t newline = pending_input.find('\n', start);
      std::string line;
      if (newline == std::string::npos) {
        if (!at_eof) break;
        line = pending_input.substr(start);
        start = pending_input.size();
        if (Trim(line).empty()) break;
      } else {
        line = pending_input.substr(start, newline - start);
        start = newline + 1;
        if (Trim(line).empty()) continue;
      }
      if (shutting_down) {
        ServeResponse refusal;
        refusal.id = RecoverRequestId(line);
        refusal.status = Status::Unavailable(kDrainRefusal);
        ServeCounter("serve.requests.refused_draining").Increment();
        write_line(SerializeServeResponse(refusal));
      } else if (HandleLine(line, write_line)) {
        shutting_down = true;
      }
      if (newline == std::string::npos) break;
    }
    pending_input.erase(0, start);
  };
  for (;;) {
    if (shutdown_requested_.load(std::memory_order_relaxed) &&
        !shutting_down) {
      // SIGTERM: refuse whatever is already buffered, then stop reading.
      shutting_down = true;
      admission_.BeginDrain();
      handle_buffered(/*at_eof=*/true);
      break;
    }
    struct pollfd poll_fd;
    poll_fd.fd = in_fd;
    poll_fd.events = POLLIN;
    poll_fd.revents = 0;
    int ready = ::poll(&poll_fd, 1, /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      DrainAndFlush();
      return Status::Unavailable("poll on input descriptor failed");
    }
    if (ready == 0) continue;
    char chunk[4096];
    ssize_t bytes = ::read(in_fd, chunk, sizeof(chunk));
    if (bytes < 0) {
      if (errno == EINTR) continue;
      DrainAndFlush();
      return Status::Unavailable("read on input descriptor failed");
    }
    if (bytes == 0) {
      handle_buffered(/*at_eof=*/true);
      break;
    }
    pending_input.append(chunk, static_cast<size_t>(bytes));
    handle_buffered(/*at_eof=*/false);
  }
  DrainAndFlush();
  return Status::OK();
}

bool EfesServer::HandleLine(const std::string& line,
                            const WriteLineFn& write_line) {
  ServeCounter("serve.requests.received").Increment();
  Result<ServeRequest> parsed = ParseServeRequest(line);
  if (!parsed.ok()) {
    // Malformed input degrades exactly this response: answer with the
    // parse error (best-effort request id) and keep serving.
    ServeCounter("serve.requests.malformed").Increment();
    ServeResponse response;
    response.id = RecoverRequestId(line);
    response.status = parsed.status();
    write_line(SerializeServeResponse(response));
    return false;
  }
  ServeRequest request = std::move(*parsed);
  if (request.op == "ping") {
    ServeResponse response;
    response.id = request.id;
    response.result_json = "{\"pong\":true}";
    write_line(SerializeServeResponse(response));
    return false;
  }
  if (request.op == "stats") {
    ServeResponse response = HandleStats(request);
    response.id = request.id;
    write_line(SerializeServeResponse(response));
    return false;
  }
  if (request.op == "shutdown") {
    // Refuse-new first, then acknowledge; in-flight requests drain after
    // the reader loop stops.
    admission_.BeginDrain();
    ServeResponse response;
    response.id = request.id;
    response.result_json = "{\"draining\":true}";
    write_line(SerializeServeResponse(response));
    return true;
  }
  // Session ops from here on.
  ServeResponse invalid;
  invalid.id = request.id;
  if (request.session.empty()) {
    invalid.status = Status::InvalidArgument("op \"" + request.op +
                                             "\" requires a session");
    write_line(SerializeServeResponse(invalid));
    return false;
  }
  if (request.op == "open") {
    if (request.dir.empty()) {
      invalid.status = Status::InvalidArgument("open requires a dir");
      write_line(SerializeServeResponse(invalid));
      return false;
    }
    // Claim the name and a table slot here, on the reader thread, so
    // duplicate- and capacity-refusals follow line order even when the
    // loads themselves race on different worker strands.
    if (Status reserved = sessions_.Reserve(request.session);
        !reserved.ok()) {
      invalid.status = std::move(reserved);
      write_line(SerializeServeResponse(invalid));
      return false;
    }
  }
  auto pending = std::make_shared<PendingRequest>();
  pending->id = request.id;
  pending->token = std::make_shared<CancelToken>();
  uint64_t deadline_ms = request.deadline_ms;
  bool has_deadline = request.has_deadline;
  if (!has_deadline && options_.default_deadline_ms > 0) {
    has_deadline = true;
    deadline_ms = options_.default_deadline_ms;
  }
  if (has_deadline) {
    pending->token->SetDeadline(deadline_ms);
    pending->force_fail_nanos =
        pending->token->deadline_nanos() +
        static_cast<int64_t>(options_.watchdog_grace_ms) * 1000000;
    RegisterWithWatchdog(pending, write_line);
  }
  Status admitted = admission_.Admit(
      "session:" + request.session, [this, pending, request, write_line] {
        RunRequest(pending, request, write_line);
      });
  if (!admitted.ok()) {
    if (request.op == "open") sessions_.CancelReservation(request.session);
    ServeResponse rejection;
    rejection.id = request.id;
    rejection.status = admitted;
    if (admitted.code() == StatusCode::kResourceExhausted) {
      rejection.retry_after_ms = kOverloadRetryAfterMs;
    }
    Respond(pending, std::move(rejection), write_line);
  }
  return false;
}

void EfesServer::RunRequest(const std::shared_ptr<PendingRequest>& pending,
                            const ServeRequest& request,
                            const WriteLineFn& write_line) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  TraceSpan span("serve.request", nullptr,
                 &metrics.GetHistogram("serve.request.ms"));
  ServeResponse response;
  response.id = request.id;
  // Per-request fault registry: faults named in the request line arm for
  // this request only (thread-local scope, see common/fault.h) and can
  // never fire in a sibling request or poison the session table.
  FaultRegistry request_faults;
  if (!request.faults.empty()) {
    Status armed = request_faults.ArmFromList(request.faults);
    if (!armed.ok()) {
      response.status = std::move(armed);
      Respond(pending, std::move(response), write_line);
      return;
    }
  }
  ScopedRequestFaults scoped_faults(
      request.faults.empty() ? nullptr : &request_faults);
  ScopedCancelToken scoped_token(pending->token.get());
  // Watchdog test hook: a request carrying serve.stall parks here,
  // past its first checkpoint, until cancelled (the watchdog's
  // force-fail path) or a bounded backstop elapses.
  if (Status stall = CheckFaultPoint("serve.stall"); !stall.ok()) {
    (void)pending->token->WaitCancelled(
        /*max_wait_ms=*/options_.watchdog_grace_ms * 50 + 5000);
  }
  Status early = CheckCancellation();
  if (!early.ok()) {
    // An open refused at its first checkpoint still owns its table
    // reservation (made on the reader thread) — release it.
    if (request.op == "open") sessions_.CancelReservation(request.session);
    response.status = std::move(early);
  } else {
    // Containment backstop: an op that throws (module code is exception-
    // free by contract, but this is the robustness layer) degrades only
    // this response.
    try {
      if (request.op == "open") {
        response = HandleOpen(request);
      } else if (request.op == "estimate") {
        response = HandleEstimate(request);
      } else if (request.op == "assess") {
        response = HandleAssess(request);
      } else {  // "close" — ValidateRequest admits no other op here
        response = HandleClose(request);
      }
    } catch (const std::exception& e) {
      if (request.op == "open") sessions_.CancelReservation(request.session);
      response = ServeResponse{};
      response.status =
          Status::Internal(std::string("request handler threw: ") + e.what());
      ServeCounter("serve.requests.caught_exceptions").Increment();
    } catch (...) {
      if (request.op == "open") sessions_.CancelReservation(request.session);
      response = ServeResponse{};
      response.status =
          Status::Internal("request handler threw a non-exception");
      ServeCounter("serve.requests.caught_exceptions").Increment();
    }
    response.id = request.id;
  }
  if (response.status.code() == StatusCode::kDeadlineExceeded) {
    ServeCounter("serve.deadline.exceeded").Increment();
  }
  Respond(pending, std::move(response), write_line);
}

ServeResponse EfesServer::HandleOpen(const ServeRequest& request) {
  ServeResponse response;
  Result<SessionInfo> info =
      sessions_.Open(request.session, request.dir, request.lenient);
  if (!info.ok()) {
    sessions_.CancelReservation(request.session);
    response.status = info.status();
    return response;
  }
  // Warm the profile cache with one assessment pass so every later
  // estimate, under any RunOptions, reuses the statistics.
  bool warm_degraded = false;
  Result<std::shared_ptr<const IntegrationScenario>> scenario =
      sessions_.Get(request.session);
  if (scenario.ok()) {
    EfesEngine engine = MakeDefaultEngine();
    RunOptions run_options;
    run_options.cache = options_.cache;
    auto warmed = engine.AssessComplexity(**scenario, run_options);
    if (!warmed.ok()) {
      if (IsCancellation(warmed.status().code())) {
        // Deadline hit mid-open: the session must not half-exist. Undo
        // the insert and report the cancellation.
        if (Status closed = sessions_.Close(request.session); !closed.ok()) {
          ServeCounter("serve.sessions.undo_failures").Increment();
        }
        response.status = warmed.status();
        return response;
      }
      // Any other warm failure is contained: the session stays usable
      // (estimates recompute lazily), the response just flags it.
      warm_degraded = true;
    }
  }
  JsonWriter json;
  json.BeginObject();
  json.Key("session");
  json.String(info->name);
  json.Key("sources");
  json.Number(static_cast<int64_t>(info->sources));
  json.Key("load_issues");
  json.Number(static_cast<int64_t>(info->load_issues));
  json.EndObject();
  response.result_json = json.ToString();
  response.degraded = info->load_degraded || warm_degraded;
  return response;
}

ServeResponse EfesServer::HandleEstimate(const ServeRequest& request) {
  ServeResponse response;
  Result<std::shared_ptr<const IntegrationScenario>> scenario =
      sessions_.Get(request.session);
  if (!scenario.ok()) {
    response.status = scenario.status();
    return response;
  }
  std::string modules =
      request.modules.empty() ? std::string(kDefaultModules) : request.modules;
  Result<EfesEngine> engine = MakeEngineForModules(modules);
  if (!engine.ok()) {
    response.status = engine.status();
    return response;
  }
  RunOptions run_options;
  run_options.quality = QualityFromRequest(request);
  run_options.cache = options_.cache;
  ProvenanceRecorder recorder;
  if (request.explain) run_options.recorder = &recorder;
  Result<EstimationResult> result = engine->Run(**scenario, run_options);
  if (!result.ok()) {
    response.status = result.status();
    return response;
  }
  response.degraded = result->degraded;
  if (request.format == "text") {
    std::string text = result->ToText();
    if (request.explain) {
      ProvenanceSnapshot snapshot = recorder.Snapshot();
      Result<std::string> tree =
          RenderProvenanceTree(snapshot, /*task_filter=*/"");
      if (tree.ok()) {
        text += "\n";
        text += *tree;
      } else {
        response.degraded = true;
      }
    }
    response.result_text = std::move(text);
  } else {
    ProvenanceSnapshot snapshot;
    if (request.explain) snapshot = recorder.Snapshot();
    response.result_json = EstimationResultToJson(
        *result, /*telemetry=*/nullptr,
        request.explain ? &snapshot : nullptr);
  }
  return response;
}

ServeResponse EfesServer::HandleAssess(const ServeRequest& request) {
  ServeResponse response;
  Result<std::shared_ptr<const IntegrationScenario>> scenario =
      sessions_.Get(request.session);
  if (!scenario.ok()) {
    response.status = scenario.status();
    return response;
  }
  std::string modules =
      request.modules.empty() ? std::string(kDefaultModules) : request.modules;
  Result<EfesEngine> engine = MakeEngineForModules(modules);
  if (!engine.ok()) {
    response.status = engine.status();
    return response;
  }
  RunOptions run_options;
  run_options.cache = options_.cache;
  auto reports = engine->AssessComplexity(**scenario, run_options);
  if (!reports.ok()) {
    response.status = reports.status();
    return response;
  }
  if (request.format == "text") {
    std::string text;
    for (const auto& report : *reports) {
      if (report == nullptr) continue;
      if (!text.empty()) text += "\n";
      text += report->ToText();
    }
    response.result_text = std::move(text);
  } else {
    JsonWriter json;
    json.BeginObject();
    json.Key("reports");
    json.BeginArray();
    for (const auto& report : *reports) {
      if (report == nullptr) continue;
      json.BeginObject();
      json.Key("module");
      json.String(report->module_name());
      json.Key("problem_count");
      json.Number(static_cast<int64_t>(report->ProblemCount()));
      json.Key("text");
      json.String(report->ToText());
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    response.result_json = json.ToString();
  }
  return response;
}

ServeResponse EfesServer::HandleClose(const ServeRequest& request) {
  ServeResponse response;
  response.status = sessions_.Close(request.session);
  if (response.status.ok()) response.result_json = "{\"closed\":true}";
  return response;
}

ServeResponse EfesServer::HandleStats(const ServeRequest& request) {
  (void)request;
  MetricsRegistry& metrics = MetricsRegistry::Global();
  // Force-register the file_io counters so a clean run reports explicit
  // zeros — the soak gate greps for "file_io.retries":0.
  (void)metrics.GetCounter("file_io.files");
  (void)metrics.GetCounter("file_io.retries");
  (void)metrics.GetCounter("file_io.failures");
  ServeResponse response;
  JsonWriter json;
  json.BeginObject();
  json.Key("sessions");
  json.BeginArray();
  for (const std::string& name : sessions_.Names()) json.String(name);
  json.EndArray();
  json.Key("queued");
  json.Number(static_cast<int64_t>(admission_.queued()));
  json.Key("counters");
  json.BeginObject();
  MetricsSnapshot snapshot = metrics.Snapshot();
  for (const auto& counter : snapshot.counters) {
    if (!StartsWith(counter.name, "serve.") &&
        !StartsWith(counter.name, "file_io.")) {
      continue;
    }
    json.Key(counter.name);
    json.Number(static_cast<int64_t>(counter.value));
  }
  json.EndObject();
  json.EndObject();
  response.result_json = json.ToString();
  return response;
}

void EfesServer::Respond(const std::shared_ptr<PendingRequest>& pending,
                         ServeResponse response,
                         const WriteLineFn& write_line) {
  if (pending->responded.exchange(true)) {
    // The watchdog (or an admission rejection) beat us to it; a late
    // worker result is discarded, never sent after its failure response.
    ServeCounter("serve.responses.discarded_late").Increment();
    return;
  }
  ServeCounter(response.status.ok() ? "serve.requests.ok"
                                    : "serve.requests.error")
      .Increment();
  write_line(SerializeServeResponse(response));
}

void EfesServer::RegisterWithWatchdog(std::shared_ptr<PendingRequest> pending,
                                      const WriteLineFn& write_line) {
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watched_.push_back(WatchedRequest{std::move(pending), write_line});
  }
  watchdog_cv_.notify_all();
}

void EfesServer::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, std::chrono::milliseconds(20),
                          [this] { return watchdog_stop_; });
    if (watchdog_stop_) return;
    int64_t now = Clock::Default()->NowNanos();
    for (auto it = watched_.begin(); it != watched_.end();) {
      PendingRequest& pending = *it->pending;
      if (pending.responded.load(std::memory_order_acquire)) {
        it = watched_.erase(it);
        continue;
      }
      if (now < pending.force_fail_nanos) {
        ++it;
        continue;
      }
      // Deadline + grace blown without reaching a checkpoint: cancel
      // (so the worker unwinds at its next checkpoint) and force the
      // failure response now. The `responded` claim guarantees the
      // worker's eventual result is discarded, not sent as a second
      // response.
      pending.token->Cancel(Status::DeadlineExceeded(kWatchdogMessage));
      if (!pending.responded.exchange(true)) {
        ServeCounter("serve.watchdog.forced").Increment();
        ServeCounter("serve.requests.error").Increment();
        ServeResponse response;
        response.id = pending.id;
        response.status = Status::DeadlineExceeded(kWatchdogMessage);
        it->write_line(SerializeServeResponse(response));
      }
      it = watched_.erase(it);
    }
  }
}

void EfesServer::DrainAndFlush() {
  admission_.BeginDrain();
  admission_.AwaitDrain();
  {
    // Workers are gone, so every watched request has (or will never get)
    // its response; clearing under the lock means no watchdog write can
    // start after this point — the frontend's output stream is about to
    // go out of scope.
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watched_.clear();
  }
  if (drained_) return;
  drained_ = true;
  if (options_.cache != nullptr && !options_.cache_save_path.empty()) {
    Status saved = options_.cache->SaveToFile(options_.cache_save_path);
    if (saved.ok()) {
      ServeCounter("serve.cache.flushes").Increment();
    } else {
      ServeCounter("serve.cache.flush_failures").Increment();
    }
  }
}

}  // namespace efes
