#include "efes/lint/token.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstddef>
#include <string_view>

namespace efes::lint {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

/// Multi-character punctuators, longest first so maximal munch works by
/// scanning the array in order.
constexpr std::array<std::string_view, 22> kMultiPunct = {
    "...", "->*", "<<=", ">>=", "::", "->", "<<", ">>", "<=", ">=", "==",
    "!=",  "&&",  "||", "+=", "-=", "*=", "/=", "%=", "++", "--", "##"};

/// True if the lexer position sits on a raw-string opener, given that
/// source[i] == 'R' (possibly after an encoding prefix already consumed by
/// the caller). Raw strings are R"tag( ... )tag".
bool IsRawStringAt(std::string_view s, size_t i) {
  return i + 1 < s.size() && s[i] == 'R' && s[i + 1] == '"';
}

/// Consumes a raw string starting at s[i] == 'R'. Returns one past the
/// closing quote (or s.size() when unterminated).
size_t ConsumeRawString(std::string_view s, size_t i, int* line) {
  size_t p = i + 2;  // skip R"
  size_t tag_begin = p;
  while (p < s.size() && s[p] != '(' && s[p] != '"' && s[p] != '\n') ++p;
  if (p >= s.size() || s[p] != '(') return p;  // malformed; stop here
  std::string_view tag = s.substr(tag_begin, p - tag_begin);
  ++p;  // skip (
  while (p < s.size()) {
    if (s[p] == '\n') ++*line;
    if (s[p] == ')' && s.compare(p + 1, tag.size(), tag) == 0 &&
        p + 1 + tag.size() < s.size() && s[p + 1 + tag.size()] == '"') {
      return p + tag.size() + 2;
    }
    ++p;
  }
  return p;
}

/// Consumes a "..." or '...' literal starting at the opening quote.
size_t ConsumeQuoted(std::string_view s, size_t i) {
  char quote = s[i];
  size_t p = i + 1;
  while (p < s.size() && s[p] != quote && s[p] != '\n') {
    if (s[p] == '\\' && p + 1 < s.size()) ++p;  // skip escaped char
    ++p;
  }
  if (p < s.size() && s[p] == quote) ++p;
  return p;
}

/// Length of the string-literal encoding prefix at s[i] (u8, u, U, L),
/// but only when a quote or raw-string opener follows; 0 otherwise.
size_t EncodingPrefixLength(std::string_view s, size_t i) {
  size_t n = 0;
  if (s.compare(i, 2, "u8") == 0) {
    n = 2;
  } else if (s[i] == 'u' || s[i] == 'U' || s[i] == 'L') {
    n = 1;
  }
  if (n == 0) return 0;
  size_t after = i + n;
  if (after < s.size() && (s[after] == '"' || s[after] == '\'')) return n;
  if (after < s.size() && IsRawStringAt(s, after)) return n;
  return 0;
}

}  // namespace

std::vector<Token> Tokenize(std::string_view source) {
  std::vector<Token> tokens;
  int line = 1;
  size_t i = 0;
  const size_t n = source.size();
  while (i < n) {
    char c = source[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      size_t end = source.find('\n', i);
      if (end == std::string_view::npos) end = n;
      tokens.push_back({TokenKind::kComment, source.substr(i, end - i), line});
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && source[i + 1] == '*') {
      int start_line = line;
      size_t end = source.find("*/", i + 2);
      size_t stop = (end == std::string_view::npos) ? n : end + 2;
      for (size_t p = i; p < stop; ++p) {
        if (source[p] == '\n') ++line;
      }
      tokens.push_back(
          {TokenKind::kComment, source.substr(i, stop - i), start_line});
      i = stop;
      continue;
    }
    // String-ish literals: raw strings, encoding prefixes, plain quotes.
    if (IsRawStringAt(source, i)) {
      int start_line = line;
      size_t end = ConsumeRawString(source, i, &line);
      tokens.push_back(
          {TokenKind::kString, source.substr(i, end - i), start_line});
      i = end;
      continue;
    }
    if (size_t prefix = EncodingPrefixLength(source, i); prefix > 0) {
      size_t body = i + prefix;
      int start_line = line;
      size_t end = IsRawStringAt(source, body)
                       ? ConsumeRawString(source, body, &line)
                       : ConsumeQuoted(source, body);
      tokens.push_back(
          {TokenKind::kString, source.substr(i, end - i), start_line});
      i = end;
      continue;
    }
    if (c == '"' || c == '\'') {
      size_t end = ConsumeQuoted(source, i);
      tokens.push_back({TokenKind::kString, source.substr(i, end - i), line});
      i = end;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t end = i;
      while (end < n && IsIdentChar(source[end])) ++end;
      tokens.push_back(
          {TokenKind::kIdentifier, source.substr(i, end - i), line});
      i = end;
      continue;
    }
    if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(source[i + 1]))) {
      // pp-number: digits plus idents, quotes-as-separators, dots, and
      // exponent signs. Over-broad is fine — checks ignore numbers.
      size_t end = i;
      while (end < n) {
        char d = source[end];
        if (IsIdentChar(d) || d == '.' || d == '\'') {
          ++end;
        } else if ((d == '+' || d == '-') && end > i &&
                   (source[end - 1] == 'e' || source[end - 1] == 'E' ||
                    source[end - 1] == 'p' || source[end - 1] == 'P')) {
          ++end;
        } else {
          break;
        }
      }
      tokens.push_back({TokenKind::kNumber, source.substr(i, end - i), line});
      i = end;
      continue;
    }
    // Punctuator: maximal munch over the multi-char table, else one char.
    size_t len = 1;
    for (std::string_view p : kMultiPunct) {
      if (source.compare(i, p.size(), p) == 0) {
        len = p.size();
        break;
      }
    }
    tokens.push_back({TokenKind::kPunct, source.substr(i, len), line});
    i += len;
  }
  return tokens;
}

size_t MatchParen(const std::vector<Token>& code, size_t open) {
  int depth = 0;
  for (size_t i = open; i < code.size(); ++i) {
    if (IsPunct(code[i], "(")) ++depth;
    if (IsPunct(code[i], ")")) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string_view::npos;
}

size_t SkipAngles(const std::vector<Token>& code, size_t i) {
  int depth = 0;
  size_t limit = std::min(code.size(), i + 256);
  for (size_t k = i; k < limit; ++k) {
    if (code[k].kind != TokenKind::kPunct) continue;
    if (code[k].text == "<") ++depth;
    if (code[k].text == ">") --depth;
    if (code[k].text == ">>") depth -= 2;
    if (depth <= 0) return k + 1;
  }
  return std::string_view::npos;
}

}  // namespace efes::lint
