// efes_lint — project-invariant static analyzer for the EFES tree.
//
//   efes_lint [flags] <path>...       check files / directory trees
//
// Paths may be single files or directories; directories are walked
// recursively for C++ sources (.h .hh .hpp .cc .cpp), visited in sorted
// order so output is byte-stable across filesystems. Every file gets
// the per-file checks; files outside tests/ and bench/ also feed the
// whole-program checks. The check catalog, the suppression syntax, and
// the allowlist policy live in src/efes/lint/lint.h (and DESIGN.md
// "Static analysis").
//
// Flags:
//   --format=text|json|sarif  report format (default text)
//   --registry=<dir>          docs/registry/ manifest directory; the
//                             registry check is skipped (with a stderr
//                             note) when not given
//   --show-suppressed         include suppressed findings in text output
//   --list-checks             print the check catalog and exit
//
// Exit codes: 0 clean, 1 unsuppressed findings or I/O error, 2 usage
// error, 64 unknown flag — matching the efes CLI convention.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "efes/common/file_io.h"
#include "efes/common/flags.h"
#include "efes/common/result.h"
#include "efes/lint/lint.h"
#include "efes/lint/registry.h"
#include "efes/lint/sarif.h"

namespace {

namespace fs = std::filesystem;

constexpr int kExitFindings = 1;
constexpr int kExitUsage = 2;
constexpr int kExitUnknownFlag = 64;

int Usage(int exit_code = kExitUsage) {
  std::fprintf(stderr,
               "usage: efes_lint [--format=text|json|sarif] "
               "[--registry=<dir>]\n"
               "                 [--show-suppressed] [--list-checks] "
               "<path>...\n"
               "Paths are C++ files or directories (walked recursively).\n");
  return exit_code;
}

bool HasLintableExtension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".hh" || ext == ".hpp" || ext == ".cc" ||
         ext == ".cpp";
}

/// Expands files/directories into a sorted list of lintable sources.
/// Nonexistent paths are reported and make the run fail.
bool CollectFiles(const std::vector<std::string>& paths,
                  std::vector<std::string>* files) {
  bool ok = true;
  for (const std::string& p : paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it(p, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file() && HasLintableExtension(it->path())) {
          files->push_back(it->path().generic_string());
        }
      }
      if (ec) {
        std::fprintf(stderr, "efes_lint: cannot walk %s: %s\n", p.c_str(),
                     ec.message().c_str());
        ok = false;
      }
    } else if (fs::is_regular_file(p, ec)) {
      files->push_back(fs::path(p).generic_string());
    } else {
      std::fprintf(stderr, "efes_lint: no such file or directory: %s\n",
                   p.c_str());
      ok = false;
    }
  }
  std::sort(files->begin(), files->end());
  files->erase(std::unique(files->begin(), files->end()), files->end());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "text";
  std::string registry_dir;
  bool show_suppressed = false;
  bool list_checks = false;
  efes::FlagSet flags;
  flags.AddChoice("format", {"text", "json", "sarif"}, "report format",
                  &format);
  flags.AddString("registry", "<dir>",
                  "docs/registry manifest directory (enables the "
                  "registry check)",
                  &registry_dir);
  flags.AddBool("show-suppressed",
                "include suppressed findings in text output",
                &show_suppressed);
  flags.AddBool("list-checks", "print the check catalog and exit",
                &list_checks);

  std::vector<std::string> paths(argv + 1, argv + argc);
  efes::Status parsed = flags.Parse(&paths);
  if (!parsed.ok()) {
    std::fprintf(stderr, "efes_lint: %s\n", parsed.message().c_str());
    if (efes::IsUnknownFlagError(parsed)) return kExitUnknownFlag;
    return Usage();
  }
  if (list_checks) {
    for (const std::string& id : efes::lint::AllCheckIds()) {
      std::printf("%s\n", id.c_str());
    }
    return 0;
  }
  if (paths.empty()) return Usage();

  std::vector<std::string> files;
  bool paths_ok = CollectFiles(paths, &files);

  efes::lint::Linter linter;
  bool io_ok = true;
  for (const std::string& file : files) {
    efes::Result<std::string> content = efes::ReadFileToString(file);
    if (!content.ok()) {
      std::fprintf(stderr, "efes_lint: %s: %s\n", file.c_str(),
                   content.status().ToString().c_str());
      io_ok = false;
      continue;
    }
    linter.AddFile(file, *content);
  }

  if (!registry_dir.empty()) {
    efes::Result<efes::lint::RegistryManifests> manifests =
        efes::lint::LoadRegistryDir(registry_dir);
    if (!manifests.ok()) {
      std::fprintf(stderr, "efes_lint: %s\n",
                   manifests.status().ToString().c_str());
      return kExitFindings;
    }
    linter.SetRegistry(std::move(manifests).value());
  } else {
    std::fprintf(stderr,
                 "efes_lint: note: no --registry=<dir>; the registry "
                 "check is skipped\n");
  }

  std::vector<efes::lint::Finding> findings = linter.Run();

  if (format == "json") {
    std::printf("%s\n", efes::lint::RenderJson(findings).c_str());
  } else if (format == "sarif") {
    std::printf("%s\n", efes::lint::RenderSarif(findings).c_str());
  } else {
    std::fputs(efes::lint::RenderText(findings, show_suppressed).c_str(),
               stdout);
  }
  if (!paths_ok || !io_ok) return kExitFindings;
  return efes::lint::CountUnsuppressed(findings) == 0 ? 0 : kExitFindings;
}
