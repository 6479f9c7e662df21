#include "efes/lint/summary.h"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <set>
#include <string>
#include <utility>

namespace efes::lint {
namespace {

constexpr size_t kNpos = std::string_view::npos;

bool Contains(const std::vector<std::string>& haystack,
              std::string_view needle) {
  for (const std::string& s : haystack) {
    if (s == needle) return true;
  }
  return false;
}

/// Control-flow and expression keywords that look like `name(`.
bool IsCallLikeKeyword(std::string_view s) {
  static const std::set<std::string_view> kKeywords = {
      "if",       "for",    "while",    "switch",   "return",
      "sizeof",   "catch",  "new",      "delete",   "throw",
      "do",       "case",   "goto",     "decltype", "alignof",
      "operator", "static_assert", "noexcept", "typeid"};
  return kKeywords.count(s) > 0;
}

bool HasLowercase(std::string_view s) {
  for (char c : s) {
    if (c >= 'a' && c <= 'z') return true;
  }
  return false;
}

/// True for a plain "..." literal token (no prefix, not raw).
bool IsPlainLiteral(std::string_view text) {
  return text.size() >= 2 && text.front() == '"' && text.back() == '"';
}

/// Strips the quotes off a plain "..." literal token.
std::string Unquote(std::string_view text) {
  if (!IsPlainLiteral(text)) return std::string(text);
  return std::string(text.substr(1, text.size() - 2));
}

/// True for dotted lowercase metric/span names: two or more [a-z0-9_]+
/// segments joined by single dots (`module.phase.metric`).
bool IsDottedMetricName(std::string_view name) {
  bool seen_dot = false;
  bool segment_char = false;
  for (char c : name) {
    if (c == '.') {
      if (!segment_char) return false;  // empty segment
      seen_dot = true;
      segment_char = false;
      continue;
    }
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_') {
      segment_char = true;
      continue;
    }
    return false;
  }
  return seen_dot && segment_char;
}

/// Records the names at observability call sites — the one scan the
/// metric-name and registry checks share. Runs over every token, so a
/// site in a default argument or a member-init list counts too.
void CollectLiteralSites(const std::vector<Token>& code,
                         const SummaryConfig& config, FileSummary* out) {
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    LiteralSite::Kind kind = LiteralSite::Kind::kMetric;
    if (Contains(config.fault_functions, t.text)) {
      kind = LiteralSite::Kind::kFault;
    } else if (Contains(config.flag_functions, t.text)) {
      kind = LiteralSite::Kind::kFlag;
    } else if (!Contains(config.metric_functions, t.text)) {
      continue;
    }
    size_t open = kNpos;
    if (IsPunct(code[i + 1], "(")) {
      open = i + 1;
    } else if (i + 2 < code.size() &&
               code[i + 1].kind == TokenKind::kIdentifier &&
               IsPunct(code[i + 2], "(")) {
      open = i + 2;  // declaration form: TraceSpan span("name", ...)
    }
    if (open == kNpos) continue;
    // Only a complete literal is checkable: the literal must be the
    // whole first argument, not a prefix of a concatenation.
    if (kind == LiteralSite::Kind::kMetric && open + 2 < code.size() &&
        code[open + 1].kind == TokenKind::kString &&
        IsPlainLiteral(code[open + 1].text) &&
        (IsPunct(code[open + 2], ",") || IsPunct(code[open + 2], ")"))) {
      std::string name = Unquote(code[open + 1].text);
      if (!IsDottedMetricName(name)) {
        out->undotted_metric_names.push_back(
            {kind, std::move(name), code[open + 1].line});
      }
    }
    size_t close = MatchParen(code, open);
    if (close == kNpos) continue;
    if (kind == LiteralSite::Kind::kFlag) {
      // Only the first argument of a flag definition is a name.
      if (open + 1 < close && code[open + 1].kind == TokenKind::kString) {
        out->literals.push_back(
            {kind, Unquote(code[open + 1].text), code[open + 1].line});
      }
      continue;
    }
    for (size_t m = open + 1; m < close; ++m) {
      if (code[m].kind != TokenKind::kString) continue;
      std::string name = Unquote(code[m].text);
      // Complete dotted names only: concatenation fragments of dynamic
      // names ("fault.", ".hits") fail this test.
      if (IsDottedMetricName(name)) {
        out->literals.push_back({kind, std::move(name), code[m].line});
      }
    }
  }
}

struct ClassScope {
  std::string name;
  int body_depth = 0;
};

struct LockRegion {
  std::string var;
  std::vector<std::string> mutexes;
  int depth = 0;
  /// Toggled off/on by `var.unlock()` / `var.lock()`.
  bool active = true;
};

struct OpenFunction {
  std::string name;
  std::string class_name;
  int line = 0;
  /// Constructors and destructors: accesses are not recorded.
  bool exempt = false;
  int body_depth = 0;
  std::set<std::string> calls;
};

}  // namespace

FileSummary Summarize(std::string_view path, const std::vector<Token>& code,
                      const SummaryConfig& config) {
  FileSummary out;
  out.path = std::string(path);
  CollectLiteralSites(code, config, &out);

  std::vector<ClassScope> classes;
  std::vector<LockRegion> locks;
  std::optional<OpenFunction> fn;
  int depth = 0;

  auto flush_function = [&]() {
    FunctionInfo info;
    info.name = std::move(fn->name);
    info.class_name = std::move(fn->class_name);
    info.line = fn->line;
    info.calls.assign(fn->calls.begin(), fn->calls.end());
    out.functions.push_back(std::move(info));
    fn.reset();
  };

  for (size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];

    if (t.kind == TokenKind::kPunct) {
      if (t.text == "{") {
        ++depth;
        continue;
      }
      if (t.text == "}") {
        --depth;
        while (!locks.empty() && locks.back().depth > depth) {
          locks.pop_back();
        }
        if (fn && depth < fn->body_depth) flush_function();
        while (!classes.empty() && depth < classes.back().body_depth) {
          classes.pop_back();
        }
        continue;
      }
      if (t.text == "#" && i + 2 < code.size() &&
          IsIdent(code[i + 1], "include") &&
          code[i + 2].kind == TokenKind::kString) {
        std::string target = Unquote(code[i + 2].text);
        if (target.rfind("efes/", 0) == 0) {
          out.includes.push_back({std::move(target), code[i + 2].line});
        }
        i += 2;
        continue;
      }
      continue;
    }

    if (t.kind != TokenKind::kIdentifier) continue;

    // ---- class/struct scope tracking ---------------------------------
    if ((t.text == "class" || t.text == "struct") && !fn) {
      bool is_enum = i > 0 && IsIdent(code[i - 1], "enum");
      if (!is_enum && i + 1 < code.size() &&
          code[i + 1].kind == TokenKind::kIdentifier) {
        size_t name_i = i + 1;
        size_t k = name_i + 1;
        if (k < code.size() && IsIdent(code[k], "final")) ++k;
        size_t body = kNpos;
        if (k < code.size() && IsPunct(code[k], "{")) {
          body = k;
        } else if (k < code.size() && IsPunct(code[k], ":")) {
          for (size_t m = k + 1; m < code.size(); ++m) {
            if (IsPunct(code[m], "{")) {
              body = m;
              break;
            }
            if (IsPunct(code[m], ";")) break;
          }
        }
        // Anything else (`;`, `>`, `,`): a forward declaration or a
        // template parameter, not a definition.
        if (body != kNpos) {
          classes.push_back({std::string(code[name_i].text), depth + 1});
          ++depth;  // consume the body '{'
          i = body;
        }
      }
      continue;
    }

    // ---- EFES_GUARDED_BY annotations in a class body -----------------
    if (t.text == "EFES_GUARDED_BY" && i + 3 < code.size() &&
        IsPunct(code[i + 1], "(") &&
        code[i + 2].kind == TokenKind::kIdentifier &&
        IsPunct(code[i + 3], ")")) {
      if (!fn && !classes.empty() && depth == classes.back().body_depth &&
          i > 0 && code[i - 1].kind == TokenKind::kIdentifier) {
        out.guarded.push_back({classes.back().name,
                               std::string(code[i - 1].text),
                               std::string(code[i + 2].text), t.line});
      }
      i += 3;
      continue;
    }

    if (!fn) {
      // ---- function definition headers -------------------------------
      if (i + 1 < code.size() && IsPunct(code[i + 1], "(") &&
          !IsCallLikeKeyword(t.text) && HasLowercase(t.text) &&
          !(i > 0 && (IsPunct(code[i - 1], ".") ||
                      IsPunct(code[i - 1], "->")))) {
        bool is_dtor = i > 0 && IsPunct(code[i - 1], "~");
        size_t before = is_dtor ? i - 1 : i;  // index of '~' or the name
        std::string class_name;
        if (before >= 2 && IsPunct(code[before - 1], "::") &&
            code[before - 2].kind == TokenKind::kIdentifier) {
          class_name = std::string(code[before - 2].text);
        } else if (!classes.empty() &&
                   depth == classes.back().body_depth) {
          class_name = classes.back().name;
        }
        bool ctor_like =
            is_dtor || (!class_name.empty() && t.text == class_name);
        size_t close = MatchParen(code, i + 1);
        size_t body = kNpos;
        if (close != kNpos) {
          size_t k = close + 1;
          while (k < code.size()) {
            const Token& u = code[k];
            if (IsPunct(u, "{")) {
              body = k;
              break;
            }
            if (IsPunct(u, ";") || IsPunct(u, "=")) break;
            if (IsPunct(u, ":")) {
              if (ctor_like) {
                // Member-init list; the next top-level '{' is close
                // enough to the body (constructors are exempt anyway).
                for (size_t m = k + 1; m < code.size(); ++m) {
                  if (IsPunct(code[m], "{")) {
                    body = m;
                    break;
                  }
                  if (IsPunct(code[m], ";")) break;
                }
              }
              break;
            }
            bool allowed =
                u.kind == TokenKind::kIdentifier ||
                u.kind == TokenKind::kNumber ||
                (u.kind == TokenKind::kPunct &&
                 (u.text == "->" || u.text == "::" || u.text == "<" ||
                  u.text == ">" || u.text == ">>" || u.text == "*" ||
                  u.text == "&" || u.text == "&&" || u.text == "," ||
                  u.text == "(" || u.text == ")" || u.text == "[" ||
                  u.text == "]"));
            if (!allowed) break;
            ++k;
          }
        }
        if (body != kNpos) {
          OpenFunction open;
          open.name = std::string(t.text);
          open.class_name = std::move(class_name);
          open.line = t.line;
          // The *Locked suffix is the project convention for "caller
          // holds the guarding mutex"; such helpers are exempt from the
          // lock-discipline access check, like constructors/destructors.
          open.exempt = ctor_like || (t.text.size() > 6 &&
                                      t.text.substr(t.text.size() - 6) ==
                                          "Locked");
          open.body_depth = depth + 1;
          fn = std::move(open);
          ++depth;  // consume the body '{'
          i = body;
        }
      }
      continue;
    }

    // ---- inside a function body --------------------------------------

    // Lock region: [std::] lock_guard|unique_lock|scoped_lock [<...>]
    // var(args);
    if (Contains(config.lock_types, t.text)) {
      size_t k = i + 1;
      if (k < code.size() && IsPunct(code[k], "<")) {
        size_t after = SkipAngles(code, k);
        if (after != kNpos) k = after;
      }
      if (k + 1 < code.size() && code[k].kind == TokenKind::kIdentifier &&
          IsPunct(code[k + 1], "(")) {
        size_t close = MatchParen(code, k + 1);
        if (close != kNpos) {
          LockRegion region;
          region.var = std::string(code[k].text);
          region.depth = depth;
          for (size_t m = k + 2; m < close; ++m) {
            if (code[m].kind != TokenKind::kIdentifier) continue;
            // Skip qualified names (std::defer_lock and friends).
            if (IsPunct(code[m - 1], "::")) continue;
            if (m + 1 < close && IsPunct(code[m + 1], "::")) continue;
            region.mutexes.emplace_back(code[m].text);
          }
          std::sort(region.mutexes.begin(), region.mutexes.end());
          region.mutexes.erase(
              std::unique(region.mutexes.begin(), region.mutexes.end()),
              region.mutexes.end());
          if (!region.mutexes.empty()) locks.push_back(std::move(region));
          i = close;
          continue;
        }
      }
    }

    // var.unlock() / var.lock() suspends / resumes var's region.
    if (i + 2 < code.size() && IsPunct(code[i + 1], ".") &&
        (IsIdent(code[i + 2], "unlock") || IsIdent(code[i + 2], "lock"))) {
      for (LockRegion& region : locks) {
        if (region.var == t.text) {
          region.active = IsIdent(code[i + 2], "lock");
        }
      }
    }

    // Call-graph edge.
    if (i + 1 < code.size() && IsPunct(code[i + 1], "(") &&
        !IsCallLikeKeyword(t.text)) {
      fn->calls.emplace(t.text);
    }

    // Member-style access: trailing-underscore identifier not reached
    // through another object.
    if (!fn->exempt && !fn->class_name.empty() && t.text.size() > 1 &&
        t.text.back() == '_') {
      bool via_object =
          i > 0 &&
          (IsPunct(code[i - 1], ".") || IsPunct(code[i - 1], "->")) &&
          !(i > 1 && IsIdent(code[i - 2], "this"));
      bool qualified = i > 0 && IsPunct(code[i - 1], "::");
      if (!via_object && !qualified) {
        MemberAccess access;
        access.class_name = fn->class_name;
        access.member = std::string(t.text);
        access.line = t.line;
        for (const LockRegion& region : locks) {
          if (!region.active) continue;
          access.held_mutexes.insert(access.held_mutexes.end(),
                                     region.mutexes.begin(),
                                     region.mutexes.end());
        }
        std::sort(access.held_mutexes.begin(), access.held_mutexes.end());
        access.held_mutexes.erase(std::unique(access.held_mutexes.begin(),
                                              access.held_mutexes.end()),
                                  access.held_mutexes.end());
        out.accesses.push_back(std::move(access));
      }
    }
  }

  if (fn) flush_function();
  return out;
}

}  // namespace efes::lint
