// Shared command-line flag parsing for the EFES tools and benches.
//
// Every binary used to hand-roll its own `--name=value` loop; this is
// the one implementation. A FlagSet owns typed flag registrations and
// parses them out of an argument list, leaving positional arguments (and
// optionally unknown flags) in place:
//
//   FlagSet flags;
//   bool metrics = false;
//   flags.AddBool("metrics", "print the metrics table", &metrics);
//   flags.AddString("out", "<file>", "write the estimate here", &out);
//   Status parsed = flags.Parse(&args);
//   if (!parsed.ok()) {
//     return IsUnknownFlagError(parsed) ? 64 : 2;  // tool convention
//   }
//
// Error taxonomy (the exit-code convention of the tools): a flag that
// was never registered fails with an unknown-flag error
// (IsUnknownFlagError returns true, exit 64); a registered flag with a
// malformed value fails with a usage error (exit 2). UsageText() renders
// the registered flags as an aligned help block, so the tool's usage
// message can never drift from what the parser accepts.

#ifndef EFES_COMMON_FLAGS_H_
#define EFES_COMMON_FLAGS_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "efes/common/status.h"

namespace efes {

class FlagSet {
 public:
  /// What Parse does with `--flag` arguments that were not registered.
  /// Positional (non `--`) arguments are always left in `args`.
  enum class UnknownFlags {
    kReject,  // fail with an unknown-flag error (exit-64 class)
    kKeep,    // leave them in `args` for a later parsing stage
  };

  /// Boolean switch: `--name` (no value).
  FlagSet& AddBool(std::string name, std::string help, bool* target);

  /// String flag: `--name=<value_name>`; the empty value is rejected.
  FlagSet& AddString(std::string name, std::string value_name,
                     std::string help, std::string* target);

  /// Positive-integer flag: `--name=<value_name>`.
  FlagSet& AddUint(std::string name, std::string value_name, std::string help,
                   size_t* target);

  /// Closed-vocabulary flag: the value must be one of `choices`.
  FlagSet& AddChoice(std::string name, std::vector<std::string> choices,
                     std::string help, std::string* target);

  /// Custom flag: `apply` validates and applies the value; a non-OK
  /// return is reported as a usage error. Repeatable on the command
  /// line (each occurrence calls `apply`).
  FlagSet& AddAction(std::string name, std::string value_name,
                     std::string help,
                     std::function<Status(std::string_view)> apply);

  /// Optional-value flag: both `--name` and `--name=<value_name>` parse;
  /// `apply` receives the empty string for the bare form. Rendered as
  /// `--name[=<value_name>]` in UsageText.
  FlagSet& AddOptional(std::string name, std::string value_name,
                       std::string help,
                       std::function<Status(std::string_view)> apply);

  /// Parses `args`, removing every recognized flag (and applying it).
  /// Stops at the first error; recognized flags before the error are
  /// already applied.
  [[nodiscard]] Status Parse(std::vector<std::string>* args,
                             UnknownFlags policy = UnknownFlags::kReject) const;

  /// Aligned help block, two-space indented, one line per flag:
  ///   --name=<value>       help text
  std::string UsageText() const;

 private:
  struct Flag {
    std::string name;        // without the leading "--"
    std::string value_name;  // empty for boolean switches
    std::string help;
    std::function<Status(std::string_view)> apply;
    bool optional_value = false;  // both --name and --name=value parse
  };

  const Flag* Find(std::string_view name) const;

  std::vector<Flag> flags_;
};

/// True when `status` (from FlagSet::Parse) means an unregistered flag
/// was seen — the tools exit 64 for these and 2 for malformed values.
bool IsUnknownFlagError(const Status& status);

}  // namespace efes

#endif  // EFES_COMMON_FLAGS_H_
