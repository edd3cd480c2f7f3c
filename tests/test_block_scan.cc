// Block-scan tiers (sql/block_scan.h): the SIMD fast paths must agree
// with the scalar reference byte-for-byte — on the unified character-class
// tables (the lexer, and the splitter riding it, read lexer_detail.h), on
// every run/find primitive (including the emitters' JSON escape scan), and
// on the full token stream, split boundaries, and canonical forms over the
// table-3 corpus plus a hostile fuzz corpus.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "sql/block_scan.h"
#include "sql/fingerprint.h"
#include "sql/lexer.h"
#include "sql/lexer_detail.h"
#include "sql/splitter.h"
#include "workload/corpus.h"

namespace sqlcheck::sql {
namespace {

namespace bs = blockscan;

/// Restores the force-scalar mode on scope exit, so running this binary
/// under SQLCHECK_FORCE_SCALAR=1 keeps every other suite scalar.
class ScopedMode {
 public:
  ScopedMode() : was_(bs::ForceScalar()) {}
  ~ScopedMode() { bs::SetForceScalarForTest(was_); }

 private:
  bool was_;
};

// ---------------------------------------------------------------------------
// Character-class lockstep (satellite: CRLF/\f/\v unification).
// ---------------------------------------------------------------------------

TEST(BlockScanTest, CharClassTableMatchesReferencePredicates) {
  for (int c = 0; c < 256; ++c) {
    const char ch = static_cast<char>(c);
    const bool space = ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r' ||
                       ch == '\f' || ch == '\v';
    const bool digit = c >= '0' && c <= '9';
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    EXPECT_EQ(lexer_detail::IsSpace(ch), space) << "byte " << c;
    EXPECT_EQ(lexer_detail::IsDigit(ch), digit) << "byte " << c;
    // ASCII-only by construction: high bytes are never identifier chars
    // (multi-byte UTF-8 runs fall through to the kOther path).
    EXPECT_EQ(lexer_detail::IsIdentStart(ch), alpha || ch == '_') << "byte " << c;
    EXPECT_EQ(lexer_detail::IsIdentChar(ch), alpha || digit || ch == '_' || ch == '$')
        << "byte " << c;
  }
}

TEST(BlockScanTest, SwarLanesMatchCharClassTable) {
  // One 8-lane block per byte value: every lane must classify exactly as the
  // scalar table does — the lexer's word path relies on it.
  for (int c = 0; c < 256; ++c) {
    char buf[8];
    for (char& b : buf) b = static_cast<char>(c);
    const uint64_t v = bs::swar::Load(buf);
    const uint64_t all = 0x8080808080808080ull;
    EXPECT_EQ(bs::swar::IdentMask(v),
              lexer_detail::IsIdentChar(static_cast<char>(c)) ? all : 0u)
        << "byte " << c;
  }
}

// ---------------------------------------------------------------------------
// Span primitives: scalar reference vs fast tier over adversarial buffers.
// ---------------------------------------------------------------------------

std::vector<std::string> FuzzBuffers() {
  std::vector<std::string> out;
  // Deterministic fuzz over the full structural alphabet; lengths 1..65
  // cover every straddle of the lexer's 8-byte word load and the 16-byte
  // SIMD blocks.
  const std::string alphabet =
      " \t\n\r\f\vabcXYZ019_$'\"`[]();,.-/*#\\?%:=<>|!~@^&+\x80\xC3\xA9\xF0";
  std::mt19937 rng(12345);
  std::uniform_int_distribution<size_t> pick(0, alphabet.size() - 1);
  for (size_t len = 1; len <= 65; ++len) {
    for (int rep = 0; rep < 8; ++rep) {
      std::string s;
      s.reserve(len);
      for (size_t i = 0; i < len; ++i) s.push_back(alphabet[pick(rng)]);
      out.push_back(std::move(s));
    }
  }
  // Long homogeneous runs exercise the block loops past their tails.
  out.push_back(std::string(100, 'a'));
  out.push_back(std::string(100, ' '));
  out.push_back(std::string(100, '7'));
  out.push_back(std::string(63, 'x') + "'");
  return out;
}

TEST(BlockScanTest, PrimitivesMatchScalarReference) {
  for (const std::string& s : FuzzBuffers()) {
    for (size_t pos = 0; pos <= s.size(); ++pos) {
      EXPECT_EQ(bs::detail::IdentRunEndFast(s, pos), bs::IdentRunEndScalar(s, pos))
          << "pos " << pos;
      EXPECT_EQ(bs::detail::SpaceRunEndFast(s, pos), bs::SpaceRunEndScalar(s, pos))
          << "pos " << pos;
      EXPECT_EQ(bs::detail::DigitRunEndFast(s, pos), bs::DigitRunEndScalar(s, pos))
          << "pos " << pos;
      EXPECT_EQ(bs::FindByteMemchr(s, pos, '\''), bs::FindByteScalar(s, pos, '\''))
          << "pos " << pos;
      EXPECT_EQ(bs::detail::FindEitherFast(s, pos, '*', '/'),
                bs::FindEitherScalar(s, pos, '*', '/'))
          << "pos " << pos;
      EXPECT_EQ(bs::detail::FindEitherFast(s, pos, '\'', '\\'),
                bs::FindEitherScalar(s, pos, '\'', '\\'))
          << "pos " << pos;
    }
  }
}

// ---------------------------------------------------------------------------
// JsonSpecialEnd (the report emitters' escape scan): scalar vs fast tier.
// ---------------------------------------------------------------------------

/// Fast and scalar JsonSpecialEnd from every start position of `s`.
void ExpectJsonSpecialLockstep(const std::string& s) {
  ScopedMode restore;
  for (size_t pos = 0; pos <= s.size(); ++pos) {
    bs::SetForceScalarForTest(false);
    const size_t fast = bs::JsonSpecialEnd(s, pos);
    bs::SetForceScalarForTest(true);
    ASSERT_EQ(fast, bs::JsonSpecialEnd(s, pos)) << "pos " << pos << " in " << s.size();
    ASSERT_EQ(fast, bs::JsonSpecialEndScalar(s, pos));
  }
}

TEST(BlockScanTest, JsonSpecialEndMatchesScalarForEveryByteAndOffset) {
  for (int c = 0; c < 256; ++c) {
    const char ch = static_cast<char>(c);
    const bool special = c < 0x20 || ch == '"' || ch == '\\';
    EXPECT_EQ(bs::IsJsonSpecial(ch), special) << "byte " << c;
    // The byte at every offset mod 16 of a 48-byte buffer (first, middle,
    // and last block), and in buffers too short for one block.
    for (size_t offset = 0; offset < 48; ++offset) {
      std::string s(48, 'x');
      s[offset] = ch;
      ExpectJsonSpecialLockstep(s);
      ExpectJsonSpecialLockstep(s.substr(0, offset % 16 + 1));
      ExpectJsonSpecialLockstep(s.substr(0, offset + 1));
    }
  }
}

TEST(BlockScanTest, JsonSpecialEndFindsSpecialsStraddlingBlocks) {
  // Specials on both sides of every 16-byte block boundary, and runs of
  // specials that span one.
  for (size_t len = 1; len <= 70; ++len) {
    for (size_t boundary : {15u, 16u, 17u, 31u, 32u, 33u}) {
      std::string s(len, 'a');
      if (boundary < len) s[boundary] = '"';
      if (boundary + 1 < len) s[boundary + 1] = '\\';
      if (boundary >= 2 && boundary - 2 < len) s[boundary - 2] = '\x1f';
      ExpectJsonSpecialLockstep(s);
    }
  }
  ExpectJsonSpecialLockstep(std::string(40, '"'));
  ExpectJsonSpecialLockstep(std::string(40, '\n'));
  for (const std::string& s : FuzzBuffers()) ExpectJsonSpecialLockstep(s);
}

TEST(BlockScanTest, JsonSpecialEndPassesMultiByteUtf8Through) {
  const std::string utf8 =
      "h\xC3\xA9llo w\xC3\xB6rld \xE2\x80\x93 \xF0\x9F\x8E\x89 caf\xC3\xA9 "
      "\xE2\x82\xAC\xF0\x9F\x98\x80\xC3\xBF\xEF\xBF\xBD";
  ScopedMode restore;
  for (bool scalar : {false, true}) {
    bs::SetForceScalarForTest(scalar);
    EXPECT_EQ(bs::JsonSpecialEnd(utf8, 0), utf8.size());
    const std::string with_quote = utf8 + "\"";
    EXPECT_EQ(bs::JsonSpecialEnd(with_quote, 0), utf8.size());
  }
  ExpectJsonSpecialLockstep(utf8);
  ExpectJsonSpecialLockstep(utf8 + "\t" + utf8);
}

// ---------------------------------------------------------------------------
// Whole-frontend identity: token stream, split boundaries, canonical forms.
// ---------------------------------------------------------------------------

std::string RenderTokens(const std::vector<Token>& tokens) {
  std::string out;
  for (const Token& t : tokens) {
    out += std::to_string(static_cast<int>(t.kind));
    out += '/';
    out += std::to_string(static_cast<int>(t.keyword));
    out += '/';
    out += std::to_string(static_cast<int>(t.op));
    out += '/';
    out += t.normalized ? '1' : '0';
    out += '[';
    out.append(t.text);
    out += "]@";
    out += std::to_string(t.offset);
    out += '+';
    out += std::to_string(t.length);
    out += '\n';
  }
  return out;
}

std::string RenderSplit(const std::vector<std::string_view>& pieces, bool complete) {
  std::string out = complete ? "complete\n" : "fragment\n";
  for (std::string_view piece : pieces) {
    out.append(piece);
    out += '\x1f';
  }
  return out;
}

/// Scalar-vs-fast identity of everything the frontend derives from `s`.
void ExpectFrontendIdentity(std::string_view s) {
  ScopedMode restore;
  TokenBuffer buffer;
  LexerOptions keep;
  keep.keep_comments = true;

  bs::SetForceScalarForTest(false);
  const std::string fast_tokens = RenderTokens(Lex(s, buffer));
  const std::string fast_comments = RenderTokens(Lex(s, buffer, keep));
  bool fast_complete = false;
  const std::string fast_split = RenderSplit(SplitStatements(s, &fast_complete, &buffer),
                                             fast_complete);
  const std::string fast_exact = CanonicalizeSql(s, FingerprintOptions::Exact());
  const std::string fast_template = CanonicalizeSql(s, FingerprintOptions::Template());

  bs::SetForceScalarForTest(true);
  EXPECT_EQ(fast_tokens, RenderTokens(Lex(s, buffer)));
  EXPECT_EQ(fast_comments, RenderTokens(Lex(s, buffer, keep)));
  bool scalar_complete = false;
  EXPECT_EQ(fast_split, RenderSplit(SplitStatements(s, &scalar_complete, &buffer),
                                    scalar_complete));
  EXPECT_EQ(fast_exact, CanonicalizeSql(s, FingerprintOptions::Exact()));
  EXPECT_EQ(fast_template, CanonicalizeSql(s, FingerprintOptions::Template()));
  EXPECT_EQ(FingerprintCanonical(fast_exact),
            FingerprintCanonical(CanonicalizeSql(s, FingerprintOptions::Exact())));
}

TEST(BlockScanTest, FrontendIdenticalOverTable3Corpus) {
  workload::CorpusOptions options;
  options.repo_count = 25;
  workload::Corpus corpus = workload::GenerateCorpus(options);
  for (const auto& s : corpus.AllStatements()) {
    ExpectFrontendIdentity(s.sql);
  }
}

TEST(BlockScanTest, FrontendIdenticalOverHostileCorpus) {
  const char* hostile[] = {
      "SELECT $$dollar 'quoted' ; body$$ FROM t",
      "SELECT $tag$nested $$ inside$tag$ FROM t",
      "/* outer /* inner */ still open? */ SELECT 1",
      "SELECT 'unterminated",
      "SELECT \"unterminated ident",
      "SELECT 'h\xC3\xA9llo w\xC3\xB6rld \xE2\x80\x93 \xF0\x9F\x8E\x89'",
      "SELECT '\\' || 'doubled '' quote' FROM t",
      "SELECT [bracket ident], \"quo\"\"ted\", `tick` FROM t",
      "-- line comment\nSELECT 1;\n# hash comment\nSELECT 2",
      "SELECT a--trailing comment",
      "SELECT :named, ?, $1, %s FROM t WHERE a <> b AND c != d",
      "SELECT a||b, c::int, x.y.z, 1.5e-7, .5, 5., 0x1F FROM t",
      "\r\nSELECT\t1\f;\vSELECT\r2;",
      "BEGIN UPDATE t SET a = 1; UPDATE t SET b = 2; END; SELECT 1",
      "SELECT CASE WHEN a THEN 'x;y' ELSE 'z' END FROM t; SELECT 2",
      ";;;   ;; SELECT 1 ;;",
      "",
      "   \t\r\n\f\v   ",
      "$",
      "'",
  };
  for (const char* s : hostile) ExpectFrontendIdentity(s);
}

TEST(BlockScanTest, FrontendIdenticalOverFuzzStraddles) {
  for (const std::string& s : FuzzBuffers()) ExpectFrontendIdentity(s);
}

TEST(BlockScanTest, TierNameIsKnown) {
  const std::string tier = bs::FastTierName();
  EXPECT_TRUE(tier == "sse2" || tier == "neon" || tier == "scalar")
      << tier;
}

}  // namespace
}  // namespace sqlcheck::sql
