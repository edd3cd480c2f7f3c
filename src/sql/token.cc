#include "sql/token.h"

#include "common/strings.h"
#include "sql/keyword_table.h"

namespace sqlcheck::sql {

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

}  // namespace sqlcheck::sql
