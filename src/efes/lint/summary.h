// Per-file summaries for the whole-program checks of efes_lint
// (lint.h, DESIGN.md "Static analysis").
//
// The per-file checks look at one token stream in isolation; the
// whole-program checks need more: which class members are
// lock-annotated, which functions call which, which headers include
// which, which observability names appear at call sites. Summarize()
// extracts exactly that from one file's code tokens (token.h) — a
// deliberately shallow, deterministic parse with a brace/class/function
// scope tracker, not an AST. The merged summaries of every file form
// the index the whole-program checks run over.
//
// Known lexical approximations:
//   * lock regions are brace-scoped: a std::lock_guard/unique_lock/
//     scoped_lock declaration opens a region until its enclosing block
//     closes; `x.unlock()` / `x.lock()` on the named lock object
//     suspend and resume it. Lambdas are attributed to the enclosing
//     scope (a lambda body executed elsewhere inherits the lexical
//     region, which is conservative for the wait-predicate idiom).
//   * member accesses are identifiers ending in '_' (the project style
//     for data members) not reached through `.`/`->` on another object;
//     `this->` counts as a self access.
//   * constructors and destructors are exempt from access recording —
//     no concurrent access exists before/after the object's lifetime.

#ifndef EFES_LINT_SUMMARY_H_
#define EFES_LINT_SUMMARY_H_

#include <string>
#include <string_view>
#include <vector>

#include "efes/lint/token.h"

namespace efes::lint {

/// `#include "efes/..."` edge, path without quotes.
struct IncludeEdge {
  std::string target;
  int line = 0;
};

/// One EFES_GUARDED_BY(mutex) annotation on a class member.
struct GuardedMember {
  std::string class_name;
  std::string member;
  std::string mutex_name;
  int line = 0;
};

/// One member-style access (identifier ending in '_') inside a method
/// body, with the mutexes whose lock regions lexically cover it.
struct MemberAccess {
  std::string class_name;
  std::string member;
  int line = 0;
  /// Sorted, deduplicated mutex member names held at the access.
  std::vector<std::string> held_mutexes;
};

/// One function definition and the names it calls.
struct FunctionInfo {
  /// Unqualified name; `class_name` is empty for free functions.
  std::string name;
  std::string class_name;
  int line = 0;
  /// Sorted, deduplicated callee identifiers (free calls and method
  /// calls alike — the call graph is name-based).
  std::vector<std::string> calls;
};

/// A complete string literal at an observability call site.
struct LiteralSite {
  enum class Kind { kMetric, kFault, kFlag };
  Kind kind = Kind::kMetric;
  std::string name;
  int line = 0;
};

struct FileSummary {
  std::string path;
  std::vector<IncludeEdge> includes;
  std::vector<GuardedMember> guarded;
  std::vector<MemberAccess> accesses;
  std::vector<FunctionInfo> functions;
  /// Complete dotted literals at observability call sites (the names
  /// the registry check compares against the manifests).
  std::vector<LiteralSite> literals;
  /// Metric sites whose whole first argument is one plain literal that
  /// is not a dotted name (the metric-name check's findings).
  std::vector<LiteralSite> undotted_metric_names;
};

/// Call-site names whose string-literal arguments are observability
/// names. Defaults match the EFES tree; tests override them.
struct SummaryConfig {
  /// Metric/span registration sites: every complete dotted literal
  /// (two or more [a-z0-9_]+ segments, `module.phase.metric`) anywhere
  /// in the argument list is a metric name. Concatenation fragments
  /// ("fault.", ".hits") fail the dotted test, which is what keeps
  /// dynamic names out.
  std::vector<std::string> metric_functions = {
      "GetCounter", "GetGauge", "GetHistogram",
      "TraceSpan",  "ServeCounter", "CacheCounter"};
  /// Fault-point check sites, same literal rule.
  std::vector<std::string> fault_functions = {"CheckFaultPoint"};
  /// Flag-definition sites: only the first argument literal is a name.
  std::vector<std::string> flag_functions = {
      "AddBool", "AddString", "AddUint",
      "AddChoice", "AddAction", "AddOptional"};
  /// Lock RAII type names opening a brace-scoped lock region.
  std::vector<std::string> lock_types = {"lock_guard", "unique_lock",
                                         "scoped_lock"};
};

/// Extracts the summary of one file from its code tokens (comments
/// filtered out). Never fails: malformed input degrades to a partial
/// summary, exactly like the tokenizer itself.
FileSummary Summarize(std::string_view path, const std::vector<Token>& code,
                      const SummaryConfig& config);

}  // namespace efes::lint

#endif  // EFES_LINT_SUMMARY_H_
