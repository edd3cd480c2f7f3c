#include "sql/fingerprint.h"

#include <cctype>

#include "sql/block_scan.h"
#include "sql/lexer.h"
#include "sql/lexer_detail.h"

namespace sqlcheck::sql {

namespace {

/// Appends `text` wrapped in `quote` with embedded quotes doubled, so quoted
/// payloads can never collide with the token separator or with each other
/// (e.g. the one string `a' 'b` renders as 'a'' ''b', distinct from the two
/// strings 'a' 'b').
void AppendQuoted(std::string* out, char quote, std::string_view text) {
  out->push_back(quote);
  for (char c : text) {
    if (c == quote) out->push_back(quote);
    out->push_back(c);
  }
  out->push_back(quote);
}

using lexer_detail::IsDigit;
using lexer_detail::IsIdentChar;
using lexer_detail::IsIdentStart;
using lexer_detail::LexClass;

char LowerChar(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

/// Streaming canonicalizer: one allocation-free pass over the raw SQL that
/// produces the same canonical string as CanonicalizeTokens(Lex(sql)) without
/// materializing a token vector. The corpus scanner canonicalizes every
/// statement group it stores, so this path is deliberately tuned; a lockstep
/// test (FingerprintTest.StreamingCanonicalizerMatchesTokenPath) and the
/// frontend fuzzer keep it in agreement with the lexer.
class StreamingCanonicalizer {
 public:
  StreamingCanonicalizer(std::string_view sql, const FingerprintOptions& options)
      : sql_(sql), options_(options) {}

  std::string Run() {
    out_.reserve(sql_.size());
    // Same leading-byte dispatch and blockscan span walks as the lexer's Run
    // loop (lexer.cc) — one shared ClassOf table, so the two passes cannot
    // disagree on what a byte starts.
    while (pos_ < sql_.size()) {
      char c = sql_[pos_];
      switch (lexer_detail::ClassOf(c)) {
        case LexClass::kWord:
          EmitWord();
          break;
        case LexClass::kSpace:
          pos_ = blockscan::SpaceRunEnd(sql_, pos_ + 1);
          break;
        case LexClass::kDigit:
          EmitNumber();
          break;
        case LexClass::kDot:
          if (IsDigit(Peek(1))) {
            EmitNumber();
          } else {
            EmitOperatorOrPunct();
          }
          break;
        case LexClass::kDash:
          if (Peek(1) == '-') {
            SkipLineComment();
          } else {
            EmitOperatorOrPunct();
          }
          break;
        case LexClass::kHash:
          if (Peek(1) != '>') {
            SkipLineComment();
          } else {
            EmitOperatorOrPunct();
          }
          break;
        case LexClass::kSlash:
          if (Peek(1) == '*') {
            SkipBlockComment();
          } else {
            EmitOperatorOrPunct();
          }
          break;
        case LexClass::kSQuote:
          EmitSingleQuoted();
          break;
        case LexClass::kIdQuote:
          EmitQuotedIdentifier(c);
          break;
        case LexClass::kBracket:
          EmitBracketIdentifier();
          break;
        case LexClass::kDollar:
          if (Peek(1) == '$' || IsIdentStart(Peek(1))) {
            if (EmitDollarQuoted()) break;
            // Not a dollar quote: `$` lexes as a single-character operator.
            Emit(sql_.substr(pos_, 1));
            ++pos_;
            break;
          }
          if (IsDigit(Peek(1))) {
            size_t start = pos_;
            pos_ = blockscan::DigitRunEnd(sql_, pos_ + 1);
            EmitParam(sql_.substr(start, pos_ - start));
            break;
          }
          EmitOperatorOrPunct();
          break;
        case LexClass::kQuestion:
          EmitParam("?");
          ++pos_;
          break;
        case LexClass::kPercent:
          if (Peek(1) == 's' && !IsIdentChar(Peek(2))) {
            EmitParam("%s");
            pos_ += 2;
          } else {
            EmitOperatorOrPunct();
          }
          break;
        case LexClass::kColon:
          if (IsIdentStart(Peek(1))) {
            size_t start = pos_;
            pos_ = blockscan::IdentRunEnd(sql_, pos_ + 1);
            EmitParam(sql_.substr(start, pos_ - start));
          } else {
            EmitOperatorOrPunct();
          }
          break;
        case LexClass::kOther:
          EmitOperatorOrPunct();
          break;
      }
    }
    return std::move(out_);
  }

 private:
  char Peek(size_t ahead) const {
    return pos_ + ahead < sql_.size() ? sql_[pos_ + ahead] : '\0';
  }

  void Separator() {
    if (!out_.empty()) out_.push_back(' ');
  }

  void Emit(std::string_view text) {
    Separator();
    out_.append(text);
  }

  void EmitParam(std::string_view text) {
    if (options_.collapse_params) {
      Emit("?");
    } else {
      Emit(text);
    }
  }

  void SkipLineComment() { pos_ = blockscan::FindByte(sql_, pos_, '\n'); }

  void SkipBlockComment() {
    pos_ += 2;
    int depth = 1;
    while (depth > 0) {
      pos_ = blockscan::FindEither(sql_, pos_, '*', '/');
      if (pos_ >= sql_.size()) break;
      if (sql_[pos_] == '/' && Peek(1) == '*') {
        ++depth;
        pos_ += 2;
      } else if (sql_[pos_] == '*' && Peek(1) == '/') {
        --depth;
        pos_ += 2;
      } else {
        ++pos_;
      }
    }
  }

  /// Mirrors the lexer's escape handling (`''` and `\'` both produce a quote
  /// in the token text), re-quoting the payload with doubled quotes exactly
  /// as AppendQuoted does.
  void EmitSingleQuoted() {
    ++pos_;  // opening quote
    if (options_.collapse_literals) {
      SkipSingleQuotedBody</*emit=*/false>();
      Emit("?");
      return;
    }
    Separator();
    out_.push_back('\'');
    SkipSingleQuotedBody</*emit=*/true>();
    out_.push_back('\'');
  }

  template <bool emit>
  void SkipSingleQuotedBody() {
    while (pos_ < sql_.size()) {
      // Bulk-step over the ordinary bytes between escapes/closers.
      size_t next = blockscan::FindStringSpecial(sql_, pos_);
      if constexpr (emit) out_.append(sql_.data() + pos_, next - pos_);
      pos_ = next;
      if (pos_ >= sql_.size()) break;
      char c = sql_[pos_];
      if (c == '\\' && pos_ + 1 < sql_.size()) {
        if constexpr (emit) {
          if (sql_[pos_ + 1] == '\'') out_.push_back('\'');
          out_.push_back(sql_[pos_ + 1]);
        }
        pos_ += 2;
        continue;
      }
      if (c == '\'') {
        if (Peek(1) == '\'') {
          if constexpr (emit) {
            out_.push_back('\'');
            out_.push_back('\'');
          }
          pos_ += 2;
          continue;
        }
        ++pos_;
        break;
      }
      // A lone trailing backslash: an ordinary body byte.
      if constexpr (emit) out_.push_back(c);
      ++pos_;
    }
  }

  void EmitQuotedIdentifier(char quote) {
    ++pos_;
    Separator();
    out_.push_back('"');
    while (pos_ < sql_.size()) {
      size_t next = quote == '"' ? blockscan::FindByte(sql_, pos_, '"')
                                 : blockscan::FindEither(sql_, pos_, quote, '"');
      out_.append(sql_.data() + pos_, next - pos_);
      pos_ = next;
      if (pos_ >= sql_.size()) break;
      char c = sql_[pos_];
      if (c == quote) {
        if (Peek(1) == quote) {
          if (quote == '"') out_.push_back('"');
          out_.push_back(quote);
          pos_ += 2;
          continue;
        }
        ++pos_;
        break;
      }
      // A `"` inside a `-quoted identifier: doubled on re-quoting.
      out_.push_back('"');
      out_.push_back('"');
      ++pos_;
    }
    out_.push_back('"');
  }

  void EmitBracketIdentifier() {
    ++pos_;
    Separator();
    out_.push_back('"');
    while (pos_ < sql_.size() && sql_[pos_] != ']') {
      size_t next = blockscan::FindEither(sql_, pos_, ']', '"');
      out_.append(sql_.data() + pos_, next - pos_);
      pos_ = next;
      if (pos_ < sql_.size() && sql_[pos_] == '"') {
        out_.push_back('"');
        out_.push_back('"');
        ++pos_;
      }
    }
    if (pos_ < sql_.size()) ++pos_;  // closing bracket
    out_.push_back('"');
  }

  bool EmitDollarQuoted() {
    size_t tag_end = pos_ + 1;
    while (tag_end < sql_.size() && IsIdentChar(sql_[tag_end]) && sql_[tag_end] != '$') {
      ++tag_end;
    }
    if (tag_end >= sql_.size() || sql_[tag_end] != '$') return false;
    std::string_view tag = sql_.substr(pos_, tag_end - pos_ + 1);
    size_t body_start = tag_end + 1;
    size_t close = sql_.find(tag, body_start);
    std::string_view body = close == std::string_view::npos
                                ? sql_.substr(body_start)
                                : sql_.substr(body_start, close - body_start);
    pos_ = close == std::string_view::npos ? sql_.size() : close + tag.size();
    if (options_.collapse_literals) {
      Emit("?");
    } else {
      Separator();
      AppendQuoted(&out_, '\'', body);
    }
    return true;
  }

  void EmitNumber() {
    size_t start = pos_;
    bool seen_dot = false;
    bool seen_exp = false;
    pos_ = blockscan::DigitRunEnd(sql_, pos_);
    while (pos_ < sql_.size()) {
      char c = sql_[pos_];
      if (c == '.' && !seen_dot && !seen_exp) {
        seen_dot = true;
        ++pos_;
      } else if ((c == 'e' || c == 'E') && !seen_exp && pos_ > start &&
                 (IsDigit(Peek(1)) ||
                  ((Peek(1) == '+' || Peek(1) == '-') && IsDigit(Peek(2))))) {
        seen_exp = true;
        pos_ += (Peek(1) == '+' || Peek(1) == '-') ? 2 : 1;
      } else {
        break;
      }
      pos_ = blockscan::DigitRunEnd(sql_, pos_);
    }
    if (options_.collapse_literals) {
      Emit("?");
    } else {
      Emit(sql_.substr(start, pos_ - start));
    }
  }

  void EmitWord() {
    size_t start = pos_;
    pos_ = blockscan::IdentRunEnd(sql_, pos_ + 1);  // start byte pre-classified
    std::string_view word = sql_.substr(start, pos_ - start);
    if (IsSqlKeyword(word)) {
      Separator();
      for (char c : word) out_.push_back(LowerChar(c));
    } else {
      Emit(word);
    }
  }

  void EmitOperatorOrPunct() {
    if (int m = lexer_detail::MatchMultiCharOperator(sql_.substr(pos_))) {
      std::string_view op = lexer_detail::kMultiCharOperators[m - 1];
      Emit(op);
      pos_ += op.size();
      return;
    }
    Emit(sql_.substr(pos_, 1));
    ++pos_;
  }

  std::string_view sql_;
  FingerprintOptions options_;
  std::string out_;
  size_t pos_ = 0;
};

}  // namespace

std::string CanonicalizeTokens(const std::vector<Token>& tokens,
                               const FingerprintOptions& options) {
  std::string out;
  // The rendering is about as long as the lexed source (the end sentinel
  // sits at its size): one allocation covers almost every statement.
  if (!tokens.empty()) out.reserve(tokens.back().offset + tokens.back().length);
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kComment || t.kind == TokenKind::kEnd) continue;
    if (!out.empty()) out.push_back(' ');
    switch (t.kind) {
      case TokenKind::kKeyword: {
        // Lowercased in place: no temporary string per keyword.
        const size_t at = out.size();
        out.append(t.text);
        for (size_t k = at; k < out.size(); ++k) {
          if (out[k] >= 'A' && out[k] <= 'Z') out[k] += 'a' - 'A';
        }
        break;
      }
      case TokenKind::kString:
        if (options.collapse_literals) {
          out.push_back('?');
        } else {
          AppendQuoted(&out, '\'', t.text);
        }
        break;
      case TokenKind::kNumber:
        if (options.collapse_literals) {
          out.push_back('?');
        } else {
          out.append(t.text);
        }
        break;
      case TokenKind::kParam:
        if (options.collapse_params) {
          out.push_back('?');
        } else {
          out.append(t.text);
        }
        break;
      case TokenKind::kQuotedIdentifier:
        // Re-quoted so `"select"` (an identifier) can't collide with the
        // keyword, and `"a b"` can't collide with two bare identifiers.
        AppendQuoted(&out, '"', t.text);
        break;
      default:
        // Identifiers keep their case: the analyzer reports table/column
        // names as written, so case differences are semantically visible.
        out.append(t.text);
        break;
    }
  }
  return out;
}

std::string CanonicalizeSql(std::string_view sql, const FingerprintOptions& options) {
  return StreamingCanonicalizer(sql, options).Run();
}

uint64_t FingerprintCanonical(std::string_view canonical) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

uint64_t FingerprintTokens(const std::vector<Token>& tokens,
                           const FingerprintOptions& options) {
  return FingerprintCanonical(CanonicalizeTokens(tokens, options));
}

uint64_t FingerprintSql(std::string_view sql, const FingerprintOptions& options) {
  return FingerprintCanonical(CanonicalizeSql(sql, options));
}

ScanFingerprints FingerprintForScan(std::string_view sql, std::string* exact_canonical) {
  *exact_canonical = CanonicalizeSql(sql, FingerprintOptions::Exact());
  ScanFingerprints fp;
  fp.exact = FingerprintCanonical(*exact_canonical);
  fp.tmpl = FingerprintSql(*exact_canonical, FingerprintOptions::Template());
  return fp;
}

}  // namespace sqlcheck::sql
