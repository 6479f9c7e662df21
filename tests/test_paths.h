// Per-process-unique scratch paths for tests.
//
// gtest_discover_tests registers every TEST of a binary as its own ctest
// entry, so under `ctest -j` sibling tests of one fixture run as
// concurrent processes. A fixed directory name under TempDir() makes one
// process's SetUp remove_all the files another process is still using —
// an intermittent failure that only shows up in parallel runs. Deriving
// the path from the process id keeps it stable within a test process but
// unique across the concurrently running siblings.

#ifndef EFES_TESTS_TEST_PATHS_H_
#define EFES_TESTS_TEST_PATHS_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <utility>

namespace efes {

/// Returns TempDir()/<name>-<pid>, unique per test process.
inline std::string TestScratchPath(const std::string& name) {
  return testing::TempDir() + "/" + name + "-" + std::to_string(::getpid());
}

/// A TestScratchPath that removes whatever it names — a file or a whole
/// directory tree — when it goes out of scope, so a test leaves nothing
/// behind in TempDir(), whether it passes or fails.
class ScopedScratchPath {
 public:
  explicit ScopedScratchPath(const std::string& name)
      : path_(TestScratchPath(name)) {}
  ScopedScratchPath(ScopedScratchPath&& other) noexcept
      : path_(std::exchange(other.path_, {})) {}
  ScopedScratchPath(const ScopedScratchPath&) = delete;
  ScopedScratchPath& operator=(const ScopedScratchPath&) = delete;
  ~ScopedScratchPath() {
    if (path_.empty()) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace efes

#endif  // EFES_TESTS_TEST_PATHS_H_
