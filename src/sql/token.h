#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "sql/keywords.h"

namespace sqlcheck::sql {

/// \brief Lexical classes produced by the non-validating lexer.
enum class TokenKind {
  kKeyword,           ///< Recognized SQL keyword (SELECT, FROM, ...).
  kIdentifier,        ///< Bare identifier.
  kQuotedIdentifier,  ///< "x", `x`, or [x] — quotes stripped in `text`.
  kString,            ///< 'x' or $$x$$ — quotes stripped in `text`.
  kNumber,            ///< Integer or real literal.
  kOperator,          ///< +, -, *, /, %, ||, =, ==, <>, !=, <=, >=, ::, ...
  kComma,
  kLeftParen,
  kRightParen,
  kDot,
  kSemicolon,
  kParam,    ///< ?, %s, :name, $1 — bind parameter placeholder.
  kComment,  ///< -- ..., # ..., /* ... */ (only kept when requested).
  kEnd,      ///< End of input sentinel.
};

/// \brief Largest input one Lex() call accepts: Token stores its source span
/// as u32, so a single lexed buffer — one statement, script, or append — is
/// capped at 4 GiB. Callers that frame untrusted input (the session's
/// CheckQuota) enforce this before lexing; nothing real comes near it.
inline constexpr size_t kMaxLexBytes = 0xFFFFFFFFull;

/// \brief One lexical token with its source span. Zero-copy: `text` is a
/// view into the lexed source buffer for every token except the rare
/// normalized payloads (quote-escape stripping, backslash escapes), which
/// view the owning TokenBuffer's side arena instead (`normalized` set).
/// Tokens are therefore only valid while their source buffer and TokenBuffer
/// are; anything that outlives them (UnknownStatement) rebases the views
/// onto storage it owns. Spans are u32 (see kMaxLexBytes): with the enum
/// fields packed alongside, a Token is 32 bytes instead of 40 — one fewer
/// cache line per pair in the token stream the whole frontend iterates.
struct Token {
  TokenKind kind = TokenKind::kEnd;
  KeywordId keyword = KeywordId::kNoKeyword;  ///< Set for kKeyword tokens.
  uint8_t op = 0;           ///< Operator code for kOperator (lexer_detail::OpCode).
  bool normalized = false;  ///< `text` views the TokenBuffer, not the source.
  std::string_view text;    ///< Normalized payload (quotes stripped, keywords as written).
  uint32_t offset = 0;      ///< Byte offset of the token start in the original SQL.
  uint32_t length = 0;      ///< Byte length of the original lexeme (with quotes).

  bool Is(TokenKind k) const { return kind == k; }

  /// True if this is the given keyword — one integer compare.
  bool IsKeyword(KeywordId k) const { return kind == TokenKind::kKeyword && keyword == k; }

  /// True if this is a keyword matching `kw` case-insensitively. Prefer the
  /// KeywordId overload on hot paths.
  bool IsKeyword(std::string_view kw) const;

  /// True if this is the operator with this code — one integer compare.
  bool IsOperator(uint8_t code) const { return kind == TokenKind::kOperator && op == code; }

  /// True if this is an operator with exactly this spelling. Prefer the
  /// code overload on hot paths.
  bool IsOperator(std::string_view spelling) const {
    return kind == TokenKind::kOperator && text == spelling;
  }
};

}  // namespace sqlcheck::sql
