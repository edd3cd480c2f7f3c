#pragma once

#include <cstdint>
#include <string_view>

namespace sqlcheck::sql::lexer_detail {

// Character classes and the multi-character operator table behind the lexer
// (the one SQL byte scanner: the splitter rides it, and every canonical form
// and fingerprint is rendered from its tokens), the parser's operator codes,
// and the block scanner's scalar reference loops.
//
// The classes are ASCII-only by construction (SQL identifiers/keywords), so
// they are a branch-free table lookup rather than locale-aware <cctype>
// calls — this loop runs for every byte of every statement.

inline constexpr uint8_t kAlpha = 1 << 0;
inline constexpr uint8_t kDigitClass = 1 << 1;
inline constexpr uint8_t kSpaceClass = 1 << 2;

namespace detail {
struct CharClassTable {
  uint8_t v[256] = {};
};
constexpr CharClassTable MakeCharClassTable() {
  CharClassTable t;
  for (int c = 'a'; c <= 'z'; ++c) t.v[c] |= kAlpha;
  for (int c = 'A'; c <= 'Z'; ++c) t.v[c] |= kAlpha;
  for (int c = '0'; c <= '9'; ++c) t.v[c] |= kDigitClass;
  for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) t.v[c] |= kSpaceClass;
  return t;
}
inline constexpr CharClassTable kCharClass = MakeCharClassTable();
}  // namespace detail

inline bool IsIdentStart(char c) {
  return (detail::kCharClass.v[static_cast<unsigned char>(c)] & kAlpha) != 0 || c == '_';
}
inline bool IsIdentChar(char c) {
  return (detail::kCharClass.v[static_cast<unsigned char>(c)] &
          (kAlpha | kDigitClass)) != 0 ||
         c == '_' || c == '$';
}
inline bool IsDigit(char c) {
  return (detail::kCharClass.v[static_cast<unsigned char>(c)] & kDigitClass) != 0;
}
/// ASCII whitespace — matches what std::isspace in the "C" locale accepts.
inline bool IsSpace(char c) {
  return (detail::kCharClass.v[static_cast<unsigned char>(c)] & kSpaceClass) != 0;
}

/// Dispatch class of a token's leading byte. The lexer's Run loop switches
/// on this instead of a chain of character compares. Derived from kCharClass
/// above — the identifier/digit/whitespace charsets live in exactly one
/// place, and the block scanner (sql/block_scan.h) mirrors them under
/// lockstep tests.
enum class LexClass : uint8_t {
  kOther = 0,  ///< operator / punctuation fallthrough
  kWord,       ///< A-Z a-z _  (identifier or keyword start)
  kSpace,      ///< ' ' \t \n \v \f \r
  kDigit,      ///< 0-9
  kDot,        ///< '.'  (number when a digit follows, else punctuation)
  kSQuote,     ///< '\''
  kIdQuote,    ///< '"' or '`'
  kBracket,    ///< '['  (SQL Server quoted identifier)
  kDollar,     ///< '$'  (dollar quote, numbered param, or operator)
  kQuestion,   ///< '?'  (positional param)
  kPercent,    ///< '%'  (%s param or modulo)
  kColon,      ///< ':'  (named param or :: operator)
  kDash,       ///< '-'  (line comment or operator)
  kHash,       ///< '#'  (line comment or #> operator)
  kSlash,      ///< '/'  (block comment or operator)
};

namespace detail {
struct LexClassTable {
  LexClass v[256] = {};
};
constexpr LexClassTable MakeLexClassTable() {
  LexClassTable t;
  for (int c = 0; c < 256; ++c) {
    if ((kCharClass.v[c] & kAlpha) != 0) {
      t.v[c] = LexClass::kWord;
    } else if ((kCharClass.v[c] & kDigitClass) != 0) {
      t.v[c] = LexClass::kDigit;
    } else if ((kCharClass.v[c] & kSpaceClass) != 0) {
      t.v[c] = LexClass::kSpace;
    }
  }
  t.v[static_cast<unsigned char>('_')] = LexClass::kWord;
  t.v[static_cast<unsigned char>('.')] = LexClass::kDot;
  t.v[static_cast<unsigned char>('\'')] = LexClass::kSQuote;
  t.v[static_cast<unsigned char>('"')] = LexClass::kIdQuote;
  t.v[static_cast<unsigned char>('`')] = LexClass::kIdQuote;
  t.v[static_cast<unsigned char>('[')] = LexClass::kBracket;
  t.v[static_cast<unsigned char>('$')] = LexClass::kDollar;
  t.v[static_cast<unsigned char>('?')] = LexClass::kQuestion;
  t.v[static_cast<unsigned char>('%')] = LexClass::kPercent;
  t.v[static_cast<unsigned char>(':')] = LexClass::kColon;
  t.v[static_cast<unsigned char>('-')] = LexClass::kDash;
  t.v[static_cast<unsigned char>('#')] = LexClass::kHash;
  t.v[static_cast<unsigned char>('/')] = LexClass::kSlash;
  return t;
}
inline constexpr LexClassTable kLexClass = MakeLexClassTable();
}  // namespace detail

inline LexClass ClassOf(char c) {
  return detail::kLexClass.v[static_cast<unsigned char>(c)];
}

/// Multi-character operators, longest match first (a prefix must come after
/// every operator it prefixes: `<=>` before `<=`, `#>>` before `#>`).
inline constexpr std::string_view kMultiCharOperators[] = {
    "<=>", "||", "==", "!=", "<>", "<=", ">=", "::", "#>>",
    "#>",  "->>", "->", "@>", "<@", "~*", "!~*", "!~"};

/// Longest multi-character operator at the start of `rest`: 1-based index
/// into kMultiCharOperators, or 0 when none matches. A first-character
/// switch instead of a table scan — this runs for every punctuation byte.
inline int MatchMultiCharOperator(std::string_view rest) {
  auto is = [&rest](int index_1based) {
    std::string_view op = kMultiCharOperators[index_1based - 1];
    return rest.substr(0, op.size()) == op ? index_1based : 0;
  };
  if (rest.empty()) return 0;
  switch (rest[0]) {
    case '<': {
      if (int m = is(1)) return m;   // <=>
      if (int m = is(5)) return m;   // <>
      if (int m = is(6)) return m;   // <=
      return is(14);                 // <@
    }
    case '|': return is(2);          // ||
    case '=': return is(3);          // ==
    case '!': {
      if (int m = is(16)) return m;  // !~*
      if (int m = is(4)) return m;   // !=
      return is(17);                 // !~
    }
    case '>': return is(7);          // >=
    case ':': return is(8);          // ::
    case '#': {
      if (int m = is(9)) return m;   // #>>
      return is(10);                 // #>
    }
    case '-': {
      if (int m = is(11)) return m;  // ->>
      return is(12);                 // ->
    }
    case '@': return is(13);         // @>
    case '~': return is(15);         // ~*
    default: return 0;
  }
}

/// Token::op code for an operator spelling: single characters code as
/// themselves, multi-character operators as 128 + table index. 0 = not an
/// operator token.
inline constexpr uint8_t kMultiCharOpBase = 128;
constexpr uint8_t SingleCharOpCode(char c) { return static_cast<uint8_t>(c); }
constexpr uint8_t MultiCharOpCode(int index_1based) {
  return static_cast<uint8_t>(kMultiCharOpBase + index_1based - 1);
}
/// Compile-time code for an operator spelling (parser-side probes).
constexpr uint8_t OpCode(std::string_view spelling) {
  if (spelling.size() == 1) return SingleCharOpCode(spelling[0]);
  for (size_t i = 0; i < sizeof(kMultiCharOperators) / sizeof(kMultiCharOperators[0]);
       ++i) {
    if (kMultiCharOperators[i] == spelling) {
      return MultiCharOpCode(static_cast<int>(i) + 1);
    }
  }
  return 0;
}

}  // namespace sqlcheck::sql::lexer_detail
