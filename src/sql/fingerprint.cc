#include "sql/fingerprint.h"

#include "common/hash.h"
#include "sql/lexer.h"

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
        if (options.collapse) {
          out.push_back('?');
        } else {
          AppendQuoted(&out, '\'', t.text);
        }
        break;
      case TokenKind::kNumber:
      case TokenKind::kParam:
        if (options.collapse) {
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
  TokenBuffer buffer;
  return CanonicalizeTokens(Lex(sql, buffer), options);
}

uint64_t FingerprintCanonical(std::string_view canonical) { return Fnv1a(canonical); }

uint64_t FingerprintTokens(const std::vector<Token>& tokens,
                           const FingerprintOptions& options) {
  return FingerprintCanonical(CanonicalizeTokens(tokens, options));
}

uint64_t FingerprintSql(std::string_view sql, const FingerprintOptions& options) {
  return FingerprintCanonical(CanonicalizeSql(sql, options));
}

ScanFingerprints FingerprintForScan(std::string_view sql, std::string* exact_canonical) {
  TokenBuffer buffer;
  *exact_canonical = CanonicalizeTokens(Lex(sql, buffer), FingerprintOptions::Exact());
  ScanFingerprints fp;
  fp.exact = FingerprintCanonical(*exact_canonical);
  fp.tmpl =
      FingerprintTokens(Lex(*exact_canonical, buffer), FingerprintOptions::Template());
  return fp;
}

}  // namespace sqlcheck::sql
