#include "sql/token.h"

#include <cstring>

#include "common/strings.h"
#include "sql/keyword_table.h"

namespace sqlcheck::sql {

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kKeyword: return "keyword";
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kQuotedIdentifier: return "quoted_identifier";
    case TokenKind::kString: return "string";
    case TokenKind::kNumber: return "number";
    case TokenKind::kOperator: return "operator";
    case TokenKind::kComma: return "comma";
    case TokenKind::kLeftParen: return "lparen";
    case TokenKind::kRightParen: return "rparen";
    case TokenKind::kDot: return "dot";
    case TokenKind::kSemicolon: return "semicolon";
    case TokenKind::kParam: return "param";
    case TokenKind::kComment: return "comment";
    case TokenKind::kEnd: return "end";
  }
  return "unknown";
}

bool Token::IsKeyword(std::string_view kw) const {
  return kind == TokenKind::kKeyword && EqualsIgnoreCase(text, kw);
}

KeywordId LookupKeyword(std::string_view word) {
  size_t n = word.size();
  if (n == 0 || n > keyword_table::kMaxKeywordLength) return KeywordId::kNoKeyword;
  // Byte-shift packing matches the table layout on any endianness; the
  // lexer's little-endian fast path skips this loop by reusing its scan
  // register directly.
  uint64_t lo = 0, hi = 0;
  for (size_t i = 0; i < n && i < 8; ++i) {
    lo |= keyword_table::FoldLane(word[i]) << (8 * i);
  }
  for (size_t i = 8; i < n; ++i) {
    hi |= keyword_table::FoldLane(word[i]) << (8 * (i - 8));
  }
  return keyword_table::LookupFolded(lo, hi);
}

std::string_view KeywordSpelling(KeywordId id) {
  return keyword_table::kSpellings[static_cast<size_t>(id)];
}

}  // namespace sqlcheck::sql
