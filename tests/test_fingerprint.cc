#include "sql/fingerprint.h"

#include <gtest/gtest.h>

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

TEST(FingerprintTest, StreamingCanonicalizerMatchesTokenPath) {
  sql::TokenBuffer buffer;
  // CanonicalizeSql is a tuned scanning pass; CanonicalizeTokens(Lex(...)) is
  // the reference. Any disagreement here could let the dedup cache merge two
  // statements the lexer distinguishes — keep them in lockstep.
  const char* tricky[] = {
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
  for (const FingerprintOptions& options : {kTemplate, kExact}) {
    for (const char* sql : tricky) {
      EXPECT_EQ(CanonicalizeSql(sql, options), CanonicalizeTokens(Lex(sql, buffer), options))
          << "input: " << sql;
    }
  }

  // Every statement of the seeded workload corpus, with the tokens a parse
  // leaves behind in its buffer: the session keys its memo on exactly these.
  Arena arena;
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

TEST(FingerprintTest, FingerprintIsHashOfCanonicalForm) {
  std::string canonical = CanonicalizeSql("SELECT 1", kTemplate);
  EXPECT_EQ(FingerprintSql("SELECT 1", kTemplate), FingerprintCanonical(canonical));
  EXPECT_NE(FingerprintCanonical("a"), FingerprintCanonical("b"));
}

}  // namespace
}  // namespace sqlcheck::sql
