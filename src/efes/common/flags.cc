#include "efes/common/flags.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "efes/common/string_util.h"

namespace efes {

namespace {

/// Splits "--name=value" / "--name". Returns false for non-flag args.
bool SplitFlag(std::string_view arg, std::string_view* name,
               std::string_view* value, bool* has_value) {
  if (arg.size() < 3 || arg.substr(0, 2) != "--") return false;
  std::string_view body = arg.substr(2);
  size_t eq = body.find('=');
  if (eq == std::string_view::npos) {
    *name = body;
    *value = {};
    *has_value = false;
  } else {
    *name = body.substr(0, eq);
    *value = body.substr(eq + 1);
    *has_value = true;
  }
  return true;
}

}  // namespace

FlagSet& FlagSet::AddBool(std::string name, std::string help, bool* target) {
  flags_.push_back(Flag{std::move(name), "", std::move(help),
                        [target](std::string_view) {
                          *target = true;
                          return Status::OK();
                        }});
  return *this;
}

FlagSet& FlagSet::AddString(std::string name, std::string value_name,
                            std::string help, std::string* target) {
  flags_.push_back(Flag{std::move(name), std::move(value_name),
                        std::move(help), [target](std::string_view value) {
                          if (value.empty()) {
                            return Status::InvalidArgument(
                                "value must not be empty");
                          }
                          *target = std::string(value);
                          return Status::OK();
                        }});
  return *this;
}

FlagSet& FlagSet::AddUint(std::string name, std::string value_name,
                          std::string help, size_t* target) {
  flags_.push_back(Flag{std::move(name), std::move(value_name),
                        std::move(help), [target](std::string_view value) {
                          const std::optional<uint64_t> v =
                              ParseUint64(value);
                          if (!v.has_value() || *v == 0 ||
                              *v > std::numeric_limits<size_t>::max()) {
                            return Status::InvalidArgument(
                                "expected a positive integer, got '" +
                                std::string(value) + "'");
                          }
                          *target = static_cast<size_t>(*v);
                          return Status::OK();
                        }});
  return *this;
}

FlagSet& FlagSet::AddChoice(std::string name,
                            std::vector<std::string> choices,
                            std::string help, std::string* target) {
  std::string value_name;
  for (const std::string& choice : choices) {
    if (!value_name.empty()) value_name.push_back('|');
    value_name += choice;
  }
  flags_.push_back(
      Flag{std::move(name), std::move(value_name), std::move(help),
           [choices = std::move(choices), target](std::string_view value) {
             if (std::find(choices.begin(), choices.end(), value) ==
                 choices.end()) {
               return Status::InvalidArgument("unsupported value '" +
                                              std::string(value) + "'");
             }
             *target = std::string(value);
             return Status::OK();
           }});
  return *this;
}

FlagSet& FlagSet::AddAction(std::string name, std::string value_name,
                            std::string help,
                            std::function<Status(std::string_view)> apply) {
  flags_.push_back(Flag{std::move(name), std::move(value_name),
                        std::move(help), std::move(apply)});
  return *this;
}

FlagSet& FlagSet::AddOptional(std::string name, std::string value_name,
                              std::string help,
                              std::function<Status(std::string_view)> apply) {
  flags_.push_back(Flag{std::move(name), std::move(value_name),
                        std::move(help), std::move(apply), true});
  return *this;
}

const FlagSet::Flag* FlagSet::Find(std::string_view name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

Status FlagSet::Parse(std::vector<std::string>* args,
                      UnknownFlags policy) const {
  std::vector<std::string> remaining;
  remaining.reserve(args->size());
  for (std::string& arg : *args) {
    std::string_view name;
    std::string_view value;
    bool has_value = false;
    if (!SplitFlag(arg, &name, &value, &has_value)) {
      remaining.push_back(std::move(arg));
      continue;
    }
    const Flag* flag = Find(name);
    if (flag == nullptr) {
      if (policy == UnknownFlags::kKeep) {
        remaining.push_back(std::move(arg));
        continue;
      }
      return Status::NotFound("unknown flag: " + arg);
    }
    const bool wants_value = !flag->value_name.empty();
    if (!flag->optional_value && wants_value != has_value) {
      return Status::InvalidArgument(
          wants_value ? "--" + flag->name + " requires a value (--" +
                            flag->name + "=" + flag->value_name + ")"
                      : "--" + flag->name + " takes no value");
    }
    Status applied = flag->apply(value);
    if (!applied.ok()) {
      return Status::InvalidArgument("bad " + arg + ": " +
                                     applied.message());
    }
  }
  *args = std::move(remaining);
  return Status::OK();
}

std::string FlagSet::UsageText() const {
  // Two-column layout: flag spelling, padded to the widest, then help.
  std::vector<std::string> spellings;
  size_t width = 0;
  for (const Flag& flag : flags_) {
    std::string spelling = "--" + flag.name;
    if (!flag.value_name.empty()) {
      spelling += flag.optional_value ? "[=" + flag.value_name + "]"
                                      : "=" + flag.value_name;
    }
    width = std::max(width, spelling.size());
    spellings.push_back(std::move(spelling));
  }
  std::ostringstream out;
  for (size_t i = 0; i < flags_.size(); ++i) {
    out << "  " << spellings[i]
        << std::string(width - spellings[i].size() + 2, ' ')
        << flags_[i].help << "\n";
  }
  return out.str();
}

bool IsUnknownFlagError(const Status& status) {
  return status.code() == StatusCode::kNotFound;
}

}  // namespace efes
