#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sql/token.h"

namespace sqlcheck::sql {

class TokenBuffer;

/// \brief Controls how much of a statement the canonical form erases.
///
/// Two presets, one per value of `collapse`:
///  - Template() (the default): keyword case, whitespace, and comments are
///    dropped AND every literal/bind-parameter collapses to a `?` placeholder.
///    Statements that differ only in constants share a fingerprint — the
///    "statement template" grouping used for workload statistics.
///  - Exact(): only keyword case, whitespace, and comments are dropped;
///    literal and parameter text is preserved. This is the key the
///    memoized-analysis cache uses, because literal content is
///    analysis-relevant (a leading `%` in a LIKE pattern, a plaintext
///    password literal, the display form of a predicate constant) and two
///    statements must agree on it before their analysis results can be
///    shared byte-for-byte.
struct FingerprintOptions {
  /// Strings, numbers and bind parameters (`?`, `%s`, `:name`, `$1`) -> `?`.
  bool collapse = true;

  static FingerprintOptions Template() { return FingerprintOptions{}; }
  static FingerprintOptions Exact() { return FingerprintOptions{false}; }
};

/// \brief Renders a token stream into its canonical spelling: tokens joined
/// by single spaces, keywords lowercased, identifiers/literals re-quoted with
/// doubled-quote escaping (so the rendering is injective — two different
/// token streams never produce the same canonical string), comments and the
/// end sentinel skipped, literals/params replaced by `?` per `options`.
/// The session's dedup memo renders each newly parsed statement this way,
/// from the tokens its parse just lexed.
std::string CanonicalizeTokens(const std::vector<Token>& tokens,
                               const FingerprintOptions& options = {});

/// \brief `CanonicalizeTokens(Lex(sql), options)`, lexed into a local
/// TokenBuffer — for callers that hold text but no tokens: the session's
/// quarantine key and tests.
std::string CanonicalizeSql(std::string_view sql, const FingerprintOptions& options = {});

/// \brief 64-bit FNV-1a hash of a canonical form — the stable statement
/// fingerprint. Equal canonical strings always hash equal; the dedup cache
/// additionally compares canonical strings so a hash collision can never
/// merge two distinct statements.
uint64_t FingerprintCanonical(std::string_view canonical);

/// \brief Fingerprint of a token stream under `options`.
uint64_t FingerprintTokens(const std::vector<Token>& tokens,
                           const FingerprintOptions& options = {});

/// \brief Fingerprint of a SQL statement under `options`.
uint64_t FingerprintSql(std::string_view sql, const FingerprintOptions& options = {});

/// \brief Both fingerprints the corpus scanner keys on.
struct ScanFingerprints {
  uint64_t exact = 0;     ///< FingerprintSql(sql, Exact()) — the store key.
  uint64_t tmpl = 0;      ///< FingerprintSql(sql, Template()) — statistics.
};

/// \brief The template fingerprint of a statement, from its exact-canonical
/// form: `FingerprintTokens(Lex(exact_canonical, buffer), Template())`. The
/// exact form is comment- and whitespace-free, so it is cheaper to walk than
/// the original. Canonicalization is stable on its own output, so
/// Template(Exact(sql)) == Template(sql)
/// (ScanFingerprintsTest.TemplateOfExactMatchesTemplateOfRaw) — except for a
/// string whose payload holds a backslash, which the rendering does not
/// re-escape; FingerprintTest.CanonicalFingerprintsArePinned pins that case.
/// The corpus scanner calls it on the session memo's key with a buffer each
/// worker keeps.
uint64_t TemplateFingerprintOfExact(std::string_view exact_canonical, TokenBuffer& buffer);

/// \brief Computes the exact-canonical form (returned via `exact_canonical`)
/// and both fingerprints, lexing into one local TokenBuffer; the template
/// half is TemplateFingerprintOfExact.
ScanFingerprints FingerprintForScan(std::string_view sql, std::string* exact_canonical);

}  // namespace sqlcheck::sql
