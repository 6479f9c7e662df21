// Lexer for efes_lint: splits C++ source into a flat token stream with
// line numbers, so checks operate on real tokens instead of regexes over
// raw text. Comments, string literals (including raw strings), and
// character literals are single tokens, which is what keeps the checks
// free of "matched a keyword inside a comment" false positives.
//
// This is deliberately NOT a conforming C++ lexer: no trigraphs, no
// universal-character-names, and preprocessor directives are tokenized
// inline (`#` is an ordinary punctuator). That is enough for the
// project-invariant checks in lint.h, and it never fails: malformed
// input degrades to best-effort tokens rather than an error. The
// matching helpers below are shared by every check.

#ifndef EFES_LINT_TOKEN_H_
#define EFES_LINT_TOKEN_H_

#include <cstddef>
#include <string_view>
#include <vector>

namespace efes::lint {

enum class TokenKind {
  /// Identifier or keyword ([A-Za-z_][A-Za-z0-9_]*).
  kIdentifier,
  /// Numeric literal, including hex/binary/float/digit-separator forms.
  kNumber,
  /// String or character literal: "...", '...', R"tag(...)tag", with any
  /// encoding prefix (u8, u, U, L).
  kString,
  /// Operator or punctuator. Multi-character operators (::, ->, <<, ...)
  /// are one token.
  kPunct,
  /// // or /* */ comment, text preserved (suppressions live here).
  kComment,
};

struct Token {
  TokenKind kind;
  /// View into the source buffer passed to Tokenize.
  std::string_view text;
  /// 1-based line of the token's first character.
  int line;
};

/// Tokenizes `source`. Never fails; unterminated literals/comments are
/// consumed to end of line or end of input. The returned views alias
/// `source`, which must outlive them.
std::vector<Token> Tokenize(std::string_view source);

inline bool IsIdent(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

inline bool IsPunct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

/// Index of the ')' matching the '(' at `open`, or npos. Operates on a
/// code-token vector (comments already filtered out).
size_t MatchParen(const std::vector<Token>& code, size_t open);

/// After code[i] == "<", returns the index one past the balanced closing
/// angle bracket, treating ">>" as two closers. Returns npos when no
/// close is found within a sane window (then it was a comparison).
size_t SkipAngles(const std::vector<Token>& code, size_t i);

}  // namespace efes::lint

#endif  // EFES_LINT_TOKEN_H_
