#include "sql/fingerprint.h"

#include <gtest/gtest.h>

#include <exception>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "workload/corpus.h"

namespace sqlcheck::sql {
namespace {

const FingerprintOptions kTemplate = FingerprintOptions::Template();
const FingerprintOptions kExact = FingerprintOptions::Exact();

TEST(FingerprintTest, CanonicalFormLowercasesKeywordsAndCollapsesLiterals) {
  EXPECT_EQ(CanonicalizeSql("SELECT  *  FROM t WHERE a = 'x' -- note\n", kTemplate),
            "select * from t where a = ?");
}

TEST(FingerprintTest, ExactFormKeepsLiteralText) {
  EXPECT_EQ(CanonicalizeSql("SELECT * FROM t WHERE a = 'x' AND b = 2", kExact),
            "select * from t where a = 'x' and b = 2");
}

TEST(FingerprintTest, LiteralValuesDoNotChangeTemplateFingerprint) {
  uint64_t a = FingerprintSql("SELECT * FROM users WHERE id = 1", kTemplate);
  uint64_t b = FingerprintSql("SELECT * FROM users WHERE id = 42", kTemplate);
  uint64_t c = FingerprintSql("SELECT * FROM users WHERE id = 'abc'", kTemplate);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(FingerprintTest, ParamSpellingsShareATemplateFingerprint) {
  uint64_t q = FingerprintSql("SELECT * FROM t WHERE id = ?", kTemplate);
  EXPECT_EQ(q, FingerprintSql("SELECT * FROM t WHERE id = %s", kTemplate));
  EXPECT_EQ(q, FingerprintSql("SELECT * FROM t WHERE id = :id", kTemplate));
  EXPECT_EQ(q, FingerprintSql("SELECT * FROM t WHERE id = $1", kTemplate));
  // A literal collapses to the same placeholder as a parameter.
  EXPECT_EQ(q, FingerprintSql("SELECT * FROM t WHERE id = 7", kTemplate));
}

TEST(FingerprintTest, WhitespaceCommentsAndKeywordCaseAreInvariant) {
  const char* variants[] = {
      "SELECT name FROM users WHERE id = 3",
      "select name from users where id = 3",
      "SELECT   name\n\tFROM users  WHERE id = 3",
      "SELECT name /* inline */ FROM users WHERE id = 3",
      "SELECT name FROM users -- trailing\n WHERE id = 3",
  };
  uint64_t expected_template = FingerprintSql(variants[0], kTemplate);
  uint64_t expected_exact = FingerprintSql(variants[0], kExact);
  for (const char* v : variants) {
    EXPECT_EQ(FingerprintSql(v, kTemplate), expected_template) << v;
    EXPECT_EQ(FingerprintSql(v, kExact), expected_exact) << v;
  }
}

TEST(FingerprintTest, DistinctStructureYieldsDistinctFingerprints) {
  uint64_t base = FingerprintSql("SELECT a FROM t WHERE x = 1", kTemplate);
  EXPECT_NE(base, FingerprintSql("SELECT b FROM t WHERE x = 1", kTemplate));
  EXPECT_NE(base, FingerprintSql("SELECT a FROM u WHERE x = 1", kTemplate));
  EXPECT_NE(FingerprintSql("SELECT a FROM t WHERE x = 1 AND y = 2", kTemplate),
            FingerprintSql("SELECT a FROM t WHERE x = 1 OR y = 2", kTemplate));
  EXPECT_NE(FingerprintSql("SELECT DISTINCT a FROM t", kTemplate),
            FingerprintSql("SELECT a FROM t", kTemplate));
}

TEST(FingerprintTest, ExactModeDistinguishesLiterals) {
  EXPECT_NE(FingerprintSql("SELECT * FROM t WHERE id = 1", kExact),
            FingerprintSql("SELECT * FROM t WHERE id = 2", kExact));
  // Analysis-relevant literal content: wildcard position in LIKE patterns.
  EXPECT_NE(FingerprintSql("SELECT a FROM t WHERE a LIKE '%x'", kExact),
            FingerprintSql("SELECT a FROM t WHERE a LIKE 'x%'", kExact));
}

TEST(FingerprintTest, IdentifierCaseIsSignificant) {
  // The analyzer reports table/column names as written, so identifier case
  // must stay visible in both modes.
  EXPECT_NE(FingerprintSql("SELECT a FROM Users", kTemplate),
            FingerprintSql("SELECT a FROM users", kTemplate));
  EXPECT_NE(FingerprintSql("SELECT a FROM Users", kExact),
            FingerprintSql("SELECT a FROM users", kExact));
}

TEST(FingerprintTest, CanonicalRenderingIsInjective) {
  // Two adjacent strings vs one string whose text embeds quote-space-quote:
  // doubled-quote escaping keeps the canonical forms distinct.
  EXPECT_NE(CanonicalizeSql("SELECT 'a' 'b'", kExact),
            CanonicalizeSql("SELECT 'a'' ''b'", kExact));
  // A quoted identifier spelled like a keyword is not that keyword.
  EXPECT_NE(CanonicalizeSql("\"select\"", kExact), CanonicalizeSql("select", kExact));
  // A string is not a bare identifier.
  EXPECT_NE(FingerprintSql("SELECT 'a' FROM t", kExact),
            FingerprintSql("SELECT a FROM t", kExact));
}

/// Statements whose lexing is easy to get wrong: escapes, every quoting
/// style, dollar quotes, parameter spellings, numbers, nested comments,
/// multi-character operators, keyword case, unterminated input, empty input.
const char* const kTricky[] = {
    "SELECT * FROM t WHERE a = 'it''s' AND b = 'a\\'b'",
    "SELECT \"col\" , `col`, [col], `a``b`, \"a\"\"b\", [a\"b] FROM t",
    "$$body$$ $tag$a $$ b$tag$ $unterminated$rest",
    "$not_a_quote + $1 + ? + %s + :named",
    "id%salary % %s",
    "1 2.5 3e10 4.2E-3 .5 1.e 5e+2",
    "/* outer /* inner */ still */ SELECT 1 -- tail\n# hash\n2",
    "j #>> 'p' #> 'q' @> x <@ y <=> z :: t -> u ->> v ~* w !~* q",
    "SeLeCt DiStInCt NaMe FrOm UsErS wHeRe Id In (1,2,3);",
    "'unterminated string",
    "SELECT CASE WHEN a THEN 'x' END FROM t WHERE b LIKE '%y' ESCAPE '!'",
    "",
    "   \t\n  ",
    "@ # $ ^ & !",
};

TEST(FingerprintTest, ParsedTokensRenderLikeAFreshLex) {
  // The session's memo renders the tokens a parse leaves behind in its
  // buffer; CanonicalizeSql renders a fresh lex. The two must agree, or the
  // memo would key a statement differently from the scanner's store and the
  // quarantine.
  TokenBuffer buffer;
  Arena arena;
  for (const FingerprintOptions& options : {kTemplate, kExact}) {
    for (const char* sql : kTricky) {
      arena.Reset();
      bool parsed = false;
      try {
        ParseStatement(sql, &arena, &buffer);
        parsed = true;
      } catch (const std::exception&) {
      }
      if (parsed) {
        EXPECT_EQ(CanonicalizeTokens(buffer.tokens(), options),
                  CanonicalizeSql(sql, options))
            << "input: " << sql;
      } else {
        EXPECT_EQ(CanonicalizeSql(sql, options),
                  CanonicalizeTokens(Lex(sql, buffer), options))
            << "input: " << sql;
      }
    }
  }

  // Every statement of the seeded workload corpus, with the tokens a parse
  // leaves behind in its buffer: the session keys its memo on exactly these.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    workload::CorpusOptions corpus_options;
    corpus_options.seed = seed;
    const workload::Corpus corpus = workload::GenerateCorpus(corpus_options);
    size_t checked = 0;
    for (const workload::LabeledStatement& statement : corpus.AllStatements()) {
      arena.Reset();
      StatementPtr stmt = ParseStatement(statement.sql, &arena, &buffer);
      ASSERT_NE(stmt, nullptr);
      for (const FingerprintOptions& options : {kTemplate, kExact}) {
        ASSERT_EQ(CanonicalizeTokens(buffer.tokens(), options),
                  CanonicalizeSql(statement.sql, options))
            << "seed " << seed << ": " << statement.sql;
      }
      ++checked;
    }
    EXPECT_GT(checked, 1000u) << "seed " << seed;
  }
}

TEST(FingerprintTest, CanonicalFingerprintsArePinned) {
  // Canonical text is a persisted format: the scan store keys its records on
  // the exact fingerprint, and dedup groups on it. A rendering change must
  // fail here, not silently cold-rebuild every store.
  struct Pin {
    uint64_t exact;
    uint64_t tmpl;
  };
  const Pin tricky_pins[] = {
      {16415724436092787993ull, 9117434674942286168ull},
      {11772241576606046624ull, 11772241576606046624ull},
      {6620165982547467212ull, 6534915674878605292ull},
      {14352956470421653772ull, 8737404475400163355ull},
      {9692887057767597090ull, 8758374792521706375ull},
      {13802080918874743317ull, 6019999581182018099ull},
      {9559362463742456222ull, 8372289028312757915ull},
      {11473417712077497884ull, 5921292854860830449ull},
      {6034358883189248849ull, 9043458475565817004ull},
      {3918737251253122808ull, 4953226028816095348ull},
      {13120619434216837192ull, 15589165438990947656ull},
      {1469598103934665603ull, 1469598103934665603ull},
      {1469598103934665603ull, 1469598103934665603ull},
      {4953233725397492825ull, 4953233725397492825ull},
  };
  static_assert(std::size(tricky_pins) == std::size(kTricky));
  for (size_t i = 0; i < std::size(kTricky); ++i) {
    EXPECT_EQ(FingerprintCanonical(CanonicalizeSql(kTricky[i], kExact)),
              tricky_pins[i].exact)
        << "input: " << kTricky[i];
    EXPECT_EQ(FingerprintCanonical(CanonicalizeSql(kTricky[i], kTemplate)),
              tricky_pins[i].tmpl)
        << "input: " << kTricky[i];
  }

  const std::vector<workload::LabeledStatement> corpus =
      workload::GenerateCorpus({}).AllStatements();
  ASSERT_EQ(corpus.size(), 2993u);
  const std::pair<size_t, Pin> corpus_pins[] = {
      {0, {5931728684023385624ull, 18416768214012448993ull}},
      {1, {8392053988643247398ull, 4213372269567612968ull}},
      {2, {598649428819470519ull, 14190160463353770948ull}},
      {500, {15202478023516305804ull, 15202478023516305804ull}},
      {1000, {16034611521443577167ull, 11356513709617341584ull}},
      {2000, {17013030572695015165ull, 17616582511292776158ull}},
  };
  for (const auto& [index, pin] : corpus_pins) {
    const std::string& sql = corpus[index].sql;
    EXPECT_EQ(FingerprintCanonical(CanonicalizeSql(sql, kExact)), pin.exact) << sql;
    EXPECT_EQ(FingerprintCanonical(CanonicalizeSql(sql, kTemplate)), pin.tmpl) << sql;
  }

  // The scanner's template fingerprint re-lexes the exact form, which can
  // differ from a template of the raw text when a string payload holds a
  // backslash: the lexer reads `\\` as one `\`, and the rendering does not
  // escape it again, so `'a\\'` renders as `'a\'`, which re-lexes as an
  // unterminated string. Pinned so the store's template statistics keep
  // their values.
  std::string exact_canonical;
  const ScanFingerprints fp =
      FingerprintForScan("SELECT 'a\\\\' FROM t", &exact_canonical);
  EXPECT_EQ(exact_canonical, "select 'a\\' from t");
  EXPECT_EQ(fp.exact, 11850113575053265468ull);
  EXPECT_EQ(fp.tmpl, 13381857310674542722ull);
  EXPECT_EQ(FingerprintSql("SELECT 'a\\\\' FROM t", kTemplate), 9329433724913937910ull);
}

TEST(FingerprintTest, FingerprintIsHashOfCanonicalForm) {
  std::string canonical = CanonicalizeSql("SELECT 1", kTemplate);
  EXPECT_EQ(FingerprintSql("SELECT 1", kTemplate), FingerprintCanonical(canonical));
  EXPECT_NE(FingerprintCanonical("a"), FingerprintCanonical("b"));
}

}  // namespace
}  // namespace sqlcheck::sql
