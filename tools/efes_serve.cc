// efes_serve — the estimation server (DESIGN.md §14).
//
// Speaks the newline-delimited JSON protocol of src/efes/serve/protocol.h
// on stdin/stdout, keeping the profile cache and thread pool warm across
// requests:
//
//   printf '%s\n' '{"id":"1","op":"open","session":"m","dir":"out/ex"}'
//     '{"id":"2","op":"estimate","session":"m"}' | efes_serve
//
// Graceful shutdown: SIGTERM/SIGINT (or a `shutdown` request) stops
// admission — further lines are refused with kUnavailable — drains every
// in-flight request, flushes the cache snapshot atomically, and exits 0.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "efes/cache/profile_cache.h"
#include "efes/common/fault.h"
#include "efes/common/flags.h"
#include "efes/common/parallel.h"
#include "efes/common/status.h"
#include "efes/common/string_util.h"
#include "efes/serve/server.h"

namespace {

constexpr int kExitUsage = 2;
constexpr int kExitUnknownFlag = 64;

struct ServeFlags {
  size_t workers = 4;
  size_t max_queue = 64;
  size_t max_sessions = 32;
  size_t default_deadline_ms = 0;
  size_t watchdog_grace_ms = 200;
  std::string cache_dir;
  bool no_cache = false;
};

ServeFlags g_flags;

// SIGTERM/SIGINT handler target. RequestShutdown is one relaxed atomic
// store, so this is async-signal-safe.
efes::EfesServer* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestShutdown();
}

efes::FlagSet& Flags() {
  static efes::FlagSet* flags = [] {
    auto* f = new efes::FlagSet();  // EFES_LINT_ALLOW(banned-function): process-lifetime flag registry, leaked on purpose
    f->AddUint("workers", "<n>", "request worker threads (default 4)",
               &g_flags.workers);
    f->AddUint("max-queue", "<n>",
               "admitted-but-unstarted requests before overload shedding "
               "(default 64)",
               &g_flags.max_queue);
    f->AddUint("max-sessions", "<n>",
               "open-session cap (default 32)", &g_flags.max_sessions);
    f->AddUint("default-deadline-ms", "<ms>",
               "deadline for requests that carry none (default: none)",
               &g_flags.default_deadline_ms);
    f->AddUint("watchdog-grace-ms", "<ms>",
               "grace past the deadline before the watchdog force-fails "
               "a request (default 200)",
               &g_flags.watchdog_grace_ms);
    f->AddAction("threads", "<n>",
                 "worker threads for parallel phases inside a request "
                 "(default: hardware concurrency; results do not depend "
                 "on the thread count)",
                 [](std::string_view value) {
                   const std::optional<uint64_t> threads =
                       efes::ParseUint64(value);
                   if (!threads.has_value() || *threads == 0 ||
                       *threads > std::numeric_limits<size_t>::max()) {
                     return efes::Status::InvalidArgument(
                         "expected a positive thread count, got '" +
                         std::string(value) + "'");
                   }
                   efes::SetThreadCountOverride(
                       static_cast<size_t>(*threads));
                   return efes::Status::OK();
                 });
    f->AddAction("inject-fault", "<point>[:spec]",
                 "arm a process-wide deterministic fault point (requests "
                 "can also arm per-request faults via their \"faults\" "
                 "field)",
                 [](std::string_view value) {
                   return efes::FaultRegistry::Global().ArmFromString(
                       std::string(value));
                 });
    f->AddString("cache-dir", "<dir>",
                 "persist the profile cache in this directory (loaded at "
                 "startup, flushed on drain)",
                 &g_flags.cache_dir);
    f->AddBool("no-cache", "disable the profile cache",
               &g_flags.no_cache);
    return f;
  }();
  return *flags;
}

int Usage(int exit_code) {
  std::fprintf(stderr,
               "usage: efes_serve [flags]\n"
               "reads newline-delimited JSON requests on stdin, writes one\n"
               "JSON response line per request on stdout (see README).\n"
               "flags:\n%s",
               Flags().UsageText().c_str());
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  efes::Status parsed = Flags().Parse(&args);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return Usage(efes::IsUnknownFlagError(parsed) ? kExitUnknownFlag
                                                  : kExitUsage);
  }
  if (!args.empty()) {
    std::fprintf(stderr, "unexpected argument: %s\n", args.front().c_str());
    return Usage(kExitUsage);
  }
  if (g_flags.no_cache && !g_flags.cache_dir.empty()) {
    std::fprintf(stderr, "--no-cache and --cache-dir are exclusive\n");
    return Usage(kExitUsage);
  }

  efes::ProfileCache cache;
  efes::ServeOptions options;
  options.workers = g_flags.workers;
  options.max_queue = g_flags.max_queue;
  options.max_sessions = g_flags.max_sessions;
  options.default_deadline_ms = g_flags.default_deadline_ms;
  options.watchdog_grace_ms = g_flags.watchdog_grace_ms;
  if (!g_flags.no_cache) {
    options.cache = &cache;
    if (!g_flags.cache_dir.empty()) {
      std::string path =
          efes::ProfileCache::FilePathInDirectory(g_flags.cache_dir);
      options.cache_save_path = path;
      efes::Status loaded = cache.LoadFromFile(path);
      if (!loaded.ok()) {
        // A missing/corrupt snapshot is a cold start, never an error.
        std::fprintf(stderr, "warning: cache load failed: %s\n",
                     loaded.ToString().c_str());
      }
    }
  }

  efes::EfesServer server(std::move(options));
  g_server = &server;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  efes::Status served = server.ServeFd(/*in_fd=*/0, /*out_fd=*/1);
  g_server = nullptr;
  if (!served.ok()) {
    std::fprintf(stderr, "error: %s\n", served.ToString().c_str());
    return 1;
  }
  return 0;
}
