#include "efes/common/file_io.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "efes/common/fault.h"
#include "efes/common/random.h"
#include "efes/common/metrics.h"

namespace efes {

namespace fs = std::filesystem;

namespace {

/// FNV-1a over the target path: a platform-stable jitter seed (std::hash
/// is not specified to agree across standard libraries).
uint64_t HashPath(std::string_view path) {
  uint64_t hash = 1469598103934665603ULL;
  for (char c : path) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Transient errors are worth retrying; everything else (bad path,
/// permission denied modeled as invalid argument, parse errors) is not.
bool IsTransient(const Status& status) {
  return status.code() == StatusCode::kUnavailable;
}

/// One write-and-rename attempt.
Status WriteOnce(const fs::path& path, const fs::path& temp_path,
                 std::string_view content) {
  EFES_RETURN_IF_ERROR(CheckFaultPoint("io.write.open"));
  std::ofstream file(temp_path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return Status::InvalidArgument("cannot open for writing: " +
                                   temp_path.string());
  }
  file.write(content.data(),
             static_cast<std::streamsize>(content.size()));
  file.flush();
  Status write_fault = CheckFaultPoint("io.write.write");
  if (!file.good() || !write_fault.ok()) {
    file.close();
    std::error_code ec;
    fs::remove(temp_path, ec);
    if (!write_fault.ok()) return write_fault;
    return Status::Unavailable("short write to " + temp_path.string());
  }
  file.close();
  Status commit_fault = CheckFaultPoint("io.write.commit");
  std::error_code ec;
  if (commit_fault.ok()) {
    fs::rename(temp_path, path, ec);
  }
  if (!commit_fault.ok() || ec) {
    std::error_code remove_ec;
    fs::remove(temp_path, remove_ec);
    if (!commit_fault.ok()) return commit_fault;
    return Status::Unavailable("cannot rename " + temp_path.string() +
                               " to " + path.string() + ": " + ec.message());
  }
  return Status::OK();
}

}  // namespace

int RetryBackoffMs(int initial_backoff_ms, int attempt, uint64_t seed) {
  if (initial_backoff_ms <= 0 || attempt < 1) return 0;
  // Cap the doubling so the shift stays defined even for absurd attempt
  // counts; 2^20 ms (~17 min) is already far beyond any sane policy.
  int exponent = attempt - 1 > 20 ? 20 : attempt - 1;
  int64_t base = static_cast<int64_t>(initial_backoff_ms) << exponent;
  Random rng(seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(attempt)));
  int64_t jitter = static_cast<int64_t>(
      rng.UniformUint64(static_cast<uint64_t>(base)));
  return static_cast<int>(base + jitter);
}

Status WriteFileAtomic(const std::string& path, std::string_view content,
                       const WriteFileOptions& options) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  static Counter& files = metrics.GetCounter("file_io.files");
  static Counter& retries = metrics.GetCounter("file_io.retries");
  static Counter& failures = metrics.GetCounter("file_io.failures");

  fs::path target(path);
  // The temp file must live in the target directory: rename(2) is only
  // atomic within one filesystem.
  fs::path temp_path = target;
  temp_path += ".tmp";

  const int attempts = options.max_attempts < 1 ? 1 : options.max_attempts;
  const uint64_t jitter_seed = HashPath(path) ^ options.backoff_seed;
  Status status;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      retries.Increment();
      // Seeded jitter spreads concurrent retriers over the backoff
      // window instead of re-colliding on a fixed interval.
      int backoff_ms =
          RetryBackoffMs(options.initial_backoff_ms, attempt, jitter_seed);
      if (backoff_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      }
    }
    status = WriteOnce(target, temp_path, content);
    if (status.ok()) {
      files.Increment();
      return status;
    }
    if (!IsTransient(status)) break;
  }
  failures.Increment();
  return status;
}

Result<std::string> ReadFileToString(const std::string& path) {
  EFES_RETURN_IF_ERROR(CheckFaultPoint("io.read"));
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::NotFound("cannot open: " + path);
  }
  // Read straight into a string sized from the file, not through a
  // growing stream buffer and a copy: scenario loads read every CSV.
  std::string content;
  std::error_code size_error;
  const uintmax_t size = fs::file_size(path, size_error);
  if (!size_error) content.reserve(size);
  char block[1 << 16];
  while (file.read(block, sizeof(block)) || file.gcount() > 0) {
    content.append(block, static_cast<size_t>(file.gcount()));
  }
  if (file.bad()) {
    return Status::Unavailable("read error on " + path);
  }
  return content;
}

}  // namespace efes
