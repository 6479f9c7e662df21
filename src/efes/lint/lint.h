// efes_lint: project-invariant static analysis for the EFES tree
// (DESIGN.md "Static analysis").
//
// The guarantees the runtime relies on — bit-identical parallel output,
// contained module failures, atomic file writes, cancellable estimation,
// lock-protected shared state — are easy to regress silently at the
// source level. This checker encodes them as machine-checked rules over
// the token stream (see token.h), runs as a tier-1 ctest, and fails the
// build on any unsuppressed finding. Discarded Status/Result values are
// left to the compiler: both types are [[nodiscard]] and the build uses
// -Werror=unused-result.
//
// Each file is read and tokenized once. The same token vector feeds the
// per-file checks and the file's summary (summary.h); the whole-program
// checks run over the merged summaries.
//
// Per-file checks (every file given):
//
//   nondeterminism      rand/srand/std::random_device/time()/argless
//                       system_clock::now outside the seeded-random and
//                       telemetry-clock allowlists.
//   unordered-iteration Range-for over a std::unordered_map/set variable
//                       inside report/export/text-rendering files, where
//                       iteration order would leak into output bytes.
//   raw-file-write      std::ofstream/fopen/std::filesystem::rename
//                       outside common/file_io (everything else must go
//                       through WriteFileAtomic).
//   header-hygiene      A header without #pragma once or an
//                       #ifndef/#define guard, or `using namespace` in a
//                       header.
//   banned-function     strcpy/sprintf/atoi and naked new/delete (leaked
//                       singletons carry suppressions).
//   unbounded-wait      A blocking primitive with no cancellation path:
//                       this_thread::sleep_for/sleep_until, or a .wait()
//                       call without a predicate argument, outside the
//                       allowlisted common/ implementation files. Server
//                       code must block via predicate/deadline overloads
//                       (wait_for with predicate, CancelToken) so drain
//                       and watchdog cancellation can always make
//                       progress.
//   metric-name         A complete string-literal name passed to a
//                       metric or span site (SummaryConfig::
//                       metric_functions) that does not follow the
//                       dotted lowercase `module.phase.metric` scheme
//                       (two or more [a-z0-9_]+ segments).
//
// Whole-program checks (files outside tests/ and bench/, so test fakes
// never join the call graph or the registry):
//
//   lock-discipline  An EFES_GUARDED_BY(mutex)-annotated member is
//                    accessed in a method body outside a lexical
//                    std::lock_guard/unique_lock/scoped_lock region of
//                    that mutex (constructors, destructors, and
//                    *Locked caller-holds-the-lock helpers exempt).
//                    Also the inference direction: a member whose every
//                    access is under the same mutex must carry the
//                    annotation, so deleting one is itself a finding
//                    rather than a silent relaxation.
//   cancellation     An estimation root — a function named
//                    AssessComplexity/Run in core/serve/module code, or
//                    any function there fanning out via ParallelFor/
//                    ParallelMap — never reaches CheckCancellation
//                    through the name-based call graph. New modules
//                    cannot silently become un-cancellable.
//   layering         An `#include "efes/..."` edge points from a lower
//                    layer to a higher one (LintConfig::layers; tools/
//                    tests/bench above all), a directory is missing
//                    from the declared order, or headers form an
//                    include cycle.
//   registry         An observability name (metric/span, fault point,
//                    CLI flag) appears at a call site but not in the
//                    docs/registry/ manifest, or a manifest entry has no
//                    call site left (stale). Runs only when manifests
//                    are installed (SetRegistry, --registry).
//
//   bad-suppression     An EFES_LINT_ALLOW comment with an unknown check
//                       id or without a reason.
//
// Suppressions: `// EFES_LINT_ALLOW(<check-id>): <reason>` silences
// findings of that check on the same line and the line below. The reason
// is mandatory; a reasonless or unknown-check suppression is itself a
// finding (bad-suppression), so the escape hatch stays auditable.
// Stale-manifest findings anchor in the manifest .md files and are
// therefore not suppressible — fix the manifest.

#ifndef EFES_LINT_LINT_H_
#define EFES_LINT_LINT_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "efes/lint/registry.h"
#include "efes/lint/summary.h"

namespace efes::lint {

/// One rule violation (or suppressed would-be violation).
struct Finding {
  std::string file;
  int line = 0;
  /// Check id, e.g. "lock-discipline".
  std::string check;
  std::string message;
  /// True when an EFES_LINT_ALLOW comment covers this finding. Suppressed
  /// findings are reported (for --show-suppressed style tooling) but do
  /// not fail the run.
  bool suppressed = false;
};

/// One directory-substring → layer-rank rule. Includes may point to the
/// same or a lower rank; an edge to a strictly higher rank is a
/// back-edge finding.
struct LayerRule {
  std::string dir;
  int rank = 0;
};

/// Where each class of construct is legitimate, and the shape of the
/// tree the whole-program checks assume. Path entries are forward-slash
/// substrings matched against the checked file's path.
struct LintConfig {
  /// Files allowed to touch raw entropy/time sources.
  std::vector<std::string> nondeterminism_allowlist = {"common/random",
                                                       "common/clock"};
  /// Files allowed to open files for writing / rename directly.
  std::vector<std::string> raw_file_write_allowlist = {"common/file_io"};
  /// Files allowed naked new/delete without a suppression comment.
  std::vector<std::string> banned_function_allowlist = {};
  /// Files allowed raw sleeps / predicate-less waits: the common/
  /// concurrency and I/O primitives everything else is supposed to
  /// block through.
  std::vector<std::string> unbounded_wait_allowlist = {"common/"};
  /// Output-rendering paths where unordered iteration order would become
  /// observable bytes; the unordered-iteration check only runs here.
  std::vector<std::string> ordered_output_paths = {
      "telemetry/report",       "experiment/json_export",
      "experiment/visualization", "common/text_table",
      "common/json_writer",     "csg/render_dot",
      "core/engine"};

  /// Call-site names the summaries (and metric-name) read.
  SummaryConfig summary;

  /// The declared layer order. Same-rank directories may include each
  /// other (cache<->profiling, core<->dedup are deliberate pairs; the
  /// include-cycle check still rejects header cycles inside them).
  std::vector<LayerRule> layers = {
      {"efes/common/", 0},
      {"efes/lint/", 1},       {"efes/telemetry/", 1},
      {"efes/relational/", 2}, {"efes/provenance/", 2},
      {"efes/cache/", 3},      {"efes/profiling/", 3},
      {"efes/matching/", 4},   {"efes/csg/", 4},
      {"efes/core/", 5},       {"efes/dedup/", 5},
      {"efes/mapping/", 5},    {"efes/structure/", 5},
      {"efes/values/", 5},     {"efes/baseline/", 5},
      {"efes/execute/", 6},    {"efes/scenario/", 6},
      {"efes/experiment/", 7},
      {"efes/serve/", 8},
  };
  /// Path substrings sitting above every layer (may include anything).
  std::vector<std::string> top_paths = {"tools/", "tests/", "bench/"};

  /// Function names that are cancellation roots when defined under
  /// `checkpoint_dirs`.
  std::vector<std::string> checkpoint_roots = {"AssessComplexity", "Run"};
  /// Directories whose roots (and ParallelFor/ParallelMap callers) must
  /// reach the checkpoint.
  std::vector<std::string> checkpoint_dirs = {
      "efes/core/",   "efes/serve/",     "efes/execute/",
      "efes/mapping/", "efes/structure/", "efes/values/",
      "efes/dedup/",  "efes/baseline/"};
  std::string checkpoint_function = "CheckCancellation";
  /// Calling one of these also makes a function a root: a fan-out point
  /// must stay cancellable (today they are, via ParallelFor's own entry
  /// checkpoint — this is the regression guard for exactly that).
  std::vector<std::string> parallel_primitives = {"ParallelFor",
                                                  "ParallelMap"};
};

/// An EFES_LINT_ALLOW occurrence parsed out of a comment.
struct Suppression {
  std::string check;
  int line = 0;
};

/// Names of all checks, for --list-checks and validation.
const std::vector<std::string>& AllCheckIds();

/// Feed every file, optionally install the registry manifests, then
/// Run(). Deterministic for a fixed file set: findings are sorted by
/// file, line, check, and message.
class Linter {
 public:
  Linter() : Linter(LintConfig()) {}
  explicit Linter(LintConfig config);

  /// Tokenizes `content` once, runs the per-file checks on it, and —
  /// outside tests/ and bench/ — keeps its summary for the
  /// whole-program checks.
  void AddFile(std::string_view path, std::string_view content);

  /// Installs the registry manifests and enables the registry check
  /// (without them the check is skipped — the CLI says so on stderr).
  void SetRegistry(RegistryManifests manifests);

  /// Every finding, per-file and whole-program, with suppressions
  /// applied.
  std::vector<Finding> Run() const;

  /// Convenience for tests: AddFile each {path, content} pair, then Run.
  std::vector<Finding> RunFiles(
      const std::vector<std::pair<std::string, std::string>>& files);

 private:
  LintConfig config_;
  std::vector<Finding> file_findings_;
  std::map<std::string, std::vector<Suppression>, std::less<>>
      suppressions_;
  std::vector<FileSummary> summaries_;
  std::optional<RegistryManifests> registry_;
};

/// Renders findings one per line: "file:line: [check] message". Appends a
/// trailing summary line. Suppressed findings are omitted unless
/// `show_suppressed`.
std::string RenderText(const std::vector<Finding>& findings,
                       bool show_suppressed = false);

/// Renders the machine-readable report:
/// {"findings":[...],"total":N,"unsuppressed":N}.
std::string RenderJson(const std::vector<Finding>& findings);

/// Number of findings that are not suppressed (the CLI's exit criterion).
size_t CountUnsuppressed(const std::vector<Finding>& findings);

}  // namespace efes::lint

#endif  // EFES_LINT_LINT_H_
