// Arena / NameInterner / zero-copy frontend tests: allocator lifetime rules,
// token span round-trips over nasty inputs, the steady-state zero-heap-
// allocation contract of the arena parse path, and the alias-resolution
// regression for the interned/flat alias map.
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/query_analyzer.h"
#include "common/arena.h"
#include "common/interner.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/splitter.h"

namespace {

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new in this binary bumps it, so
// a region with zero delta performed zero heap allocations. (Debug or
// Release — the contract holds in both.)
// ---------------------------------------------------------------------------
std::atomic<size_t> g_heap_allocations{0};

}  // namespace

// GCC flags free() inside replaced global deallocation functions as a
// mismatched pair; this is the canonical counting-allocator shape, so hush.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  ++g_heap_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_heap_allocations;
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace sqlcheck {
namespace {

using sql::Token;
using sql::TokenBuffer;
using sql::TokenKind;

// ------------------------------- Arena -------------------------------------

TEST(ArenaTest, DupReturnsStableCopies) {
  Arena arena(64);
  std::string source = "hello world";
  std::string_view copy = arena.Dup(source);
  source.assign("xxxxxxxxxxx");
  EXPECT_EQ(copy, "hello world");
  EXPECT_NE(copy.data(), source.data());
}

TEST(ArenaTest, ManySmallAllocationsSpanChunks) {
  Arena arena(64);
  std::vector<std::string_view> views;
  for (int i = 0; i < 1000; ++i) {
    views.push_back(arena.Dup(std::string(17, static_cast<char>('a' + i % 26))));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(views[i], std::string(17, static_cast<char>('a' + i % 26)));
  }
  EXPECT_GE(arena.bytes_used(), 17000u);
  EXPECT_EQ(arena.allocation_count(), 1000u);
}

TEST(ArenaTest, ResetRetainsCapacityAndInvalidatesCounts) {
  Arena arena(64);
  for (int i = 0; i < 100; ++i) arena.Dup("some moderately long payload here");
  size_t reserved = arena.bytes_reserved();
  ASSERT_GT(reserved, 0u);
  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.allocation_count(), 0u);
  // Retained chunks: refilling identically must not grow the reservation.
  for (int i = 0; i < 100; ++i) arena.Dup("some moderately long payload here");
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(ArenaTest, TrimReleasesTailChunksWhenEmpty) {
  Arena arena(64);
  for (int i = 0; i < 200; ++i) arena.Dup("some moderately long payload here");
  size_t grown = arena.bytes_reserved();

  // Trim on a non-empty arena is a no-op: live objects must never move.
  arena.Trim(0);
  EXPECT_EQ(arena.bytes_reserved(), grown);

  arena.Reset();
  arena.Trim(0);
  size_t trimmed = arena.bytes_reserved();
  EXPECT_LT(trimmed, grown);
  EXPECT_GT(trimmed, 0u);  // chunk 0 is always retained

  // The trimmed arena is immediately usable and regrows on demand.
  for (int i = 0; i < 200; ++i) arena.Dup("some moderately long payload here");
  EXPECT_GE(arena.bytes_reserved(), trimmed);

  // A keep_bytes floor retains capacity up to (at least) that budget.
  arena.Reset();
  arena.Trim(grown);
  EXPECT_GE(arena.bytes_reserved(), trimmed);
}

TEST(TokenBufferTest, TrimShedsScratchReservation) {
  TokenBuffer buffer;
  std::string big = "SELECT '";
  for (int i = 0; i < (1 << 14); ++i) big += "x''";  // escaped quotes: the
  big += "' FROM t";  // payload normalizes through the norm arena
  sql::Lex(big, buffer);
  size_t grown = buffer.reserved_bytes();
  ASSERT_GT(grown, 0u);
  buffer.Trim(0);
  EXPECT_LT(buffer.reserved_bytes(), grown);
  // Still lexes correctly after the trim.
  sql::Lex("SELECT 1 FROM t", buffer);
  EXPECT_GT(buffer.tokens().size(), 0u);
}

TEST(ArenaTest, WorksAsPmrResource) {
  Arena arena;
  std::pmr::vector<std::pmr::string> v(&arena);
  for (int i = 0; i < 64; ++i) v.emplace_back("value-with-some-length-" + std::to_string(i));
  EXPECT_EQ(v.size(), 64u);
  EXPECT_GT(arena.bytes_used(), 0u);
}

// Arena-tier statements must not be copyable: a copy could outlive the
// arena that owns every byte of the original.
static_assert(!std::is_copy_constructible_v<sql::SelectStatement>,
              "statements must not be copyable out of their arena");
static_assert(!std::is_copy_assignable_v<sql::SelectStatement>);
static_assert(!std::is_copy_constructible_v<sql::Expr>);
static_assert(!std::is_copy_constructible_v<sql::UnknownStatement>);

TEST(ArenaTest, ParsedStatementLivesInArena) {
  Arena arena;
  sql::StatementPtr stmt = sql::ParseStatement("SELECT a, b FROM t WHERE a = 1", &arena);
  ASSERT_NE(stmt, nullptr);
  EXPECT_TRUE(stmt->arena_managed);
  EXPECT_GT(arena.bytes_used(), 0u);
  const auto* select = stmt->As<sql::SelectStatement>();
  ASSERT_NE(select, nullptr);
  EXPECT_EQ(select->from[0].name, "t");
}

TEST(ArenaTest, HeapTierStatementsStillDeleteCleanly) {
  // No arena: the same API must produce ordinary heap statements (exercised
  // under ASan in CI — a double free or leak here fails the job).
  sql::StatementPtr stmt = sql::ParseStatement("SELECT a FROM t");
  ASSERT_NE(stmt, nullptr);
  EXPECT_FALSE(stmt->arena_managed);
  sql::StatementPtr clone = stmt->CloneStatement();
  EXPECT_FALSE(clone->arena_managed);
}

TEST(ArenaTest, CloneOfArenaStatementOutlivesArena) {
  sql::StatementPtr clone;
  {
    Arena arena;
    sql::StatementPtr stmt =
        sql::ParseStatement("SELECT \"weird name\" FROM t WHERE x = 'it''s'", &arena);
    clone = stmt->CloneStatement();
  }  // arena gone; the clone is heap-tier and self-contained
  EXPECT_EQ(std::string_view(clone->raw_sql),
            "SELECT \"weird name\" FROM t WHERE x = 'it''s'");
}

// ----------------------------- NameInterner --------------------------------

TEST(InternerTest, CaseInsensitiveDense) {
  NameInterner interner;
  NameId a = interner.Intern("Users");
  EXPECT_EQ(interner.Intern("USERS"), a);
  EXPECT_EQ(interner.Intern("users"), a);
  NameId b = interner.Intern("Orders");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.size(), 2u);
  EXPECT_EQ(interner.Lower(a), "users");
  EXPECT_EQ(interner.Spelling(a), "Users");  // first spelling wins
  EXPECT_EQ(interner.Find("uSeRs"), a);
  EXPECT_EQ(interner.Find("absent"), kNoName);
  EXPECT_EQ(interner.Intern(""), kNoName);
}

TEST(InternerTest, LowerViewsStayValidAsTableGrows) {
  NameInterner interner;
  std::string_view first = interner.Lower(interner.Intern("First_Table"));
  for (int i = 0; i < 10000; ++i) interner.Intern("name" + std::to_string(i));
  EXPECT_EQ(first, "first_table");
}

// --------------------------- Token round-trips -----------------------------

TEST(TokenRoundTripTest, OffsetsReconstructEveryLexeme) {
  // Dollar quotes, nested block comments, every identifier-quoting style,
  // escaped strings, params, multi-char operators — each token's
  // offset/length must slice the exact original lexeme out of the source,
  // spans must be disjoint and monotonic, and every non-whitespace byte
  // must belong to some token.
  const std::string_view corpus[] = {
      "SELECT a, \"b c\", `d`, [e f] FROM t WHERE x = 'it''s' AND y = $tag$raw $ body$tag$",
      "/* outer /* nested */ still comment */ SELECT 1 + 2.5e-3 FROM t -- tail",
      "SELECT * FROM t WHERE a <=> b AND c #>> '{x}' AND d !~* 'p' AND e := 1",
      "INSERT INTO t VALUES (?, %s, :named, $1, 'a\\'b')",
      "# mysql comment\nSELECT x FROM y WHERE json #> 'p' @> q",
      "UPDATE \"Mixed\"\"Quote\" SET a = 'x;y' WHERE b IN (1, 2, 3)",
  };
  TokenBuffer buffer;
  sql::LexerOptions keep;
  keep.keep_comments = true;
  for (std::string_view sql : corpus) {
    const std::vector<Token>& tokens = Lex(sql, buffer, keep);
    size_t prev_end = 0;
    std::vector<bool> covered(sql.size(), false);
    for (const Token& t : tokens) {
      if (t.kind == TokenKind::kEnd) {
        EXPECT_EQ(t.offset, sql.size());
        continue;
      }
      ASSERT_LE(t.offset + t.length, sql.size()) << sql;
      EXPECT_GE(t.offset, prev_end) << "overlapping spans in: " << sql;
      prev_end = t.offset + t.length;
      std::string_view lexeme = sql.substr(t.offset, t.length);
      for (size_t i = t.offset; i < t.offset + t.length; ++i) covered[i] = true;
      if (!t.normalized) {
        // Zero-copy payload: the text is a subview of its own lexeme.
        EXPECT_GE(t.text.data(), lexeme.data()) << sql;
        EXPECT_LE(t.text.data() + t.text.size(), lexeme.data() + lexeme.size()) << sql;
      } else {
        // Normalized payloads (escape-stripped) live in the buffer but must
        // still be reconstructible: stripping quotes/escapes from the lexeme
        // yields the text. Spot-check total length shrinks.
        EXPECT_LT(t.text.size(), lexeme.size()) << sql;
      }
      switch (t.kind) {
        case TokenKind::kIdentifier:
        case TokenKind::kKeyword:
        case TokenKind::kNumber:
        case TokenKind::kOperator:
        case TokenKind::kParam:
        case TokenKind::kComment:
          EXPECT_EQ(t.text, lexeme) << sql;
          break;
        default:
          break;
      }
    }
    for (size_t i = 0; i < sql.size(); ++i) {
      if (!std::isspace(static_cast<unsigned char>(sql[i]))) {
        EXPECT_TRUE(covered[i]) << "byte " << i << " uncovered in: " << sql;
      }
    }
  }
}

TEST(TokenRoundTripTest, UnknownStatementTokensSelfContained) {
  // Unparseable statements keep their token run; the views must point into
  // the statement's own storage, not the (dead) lex-time buffer.
  sql::StatementPtr stmt;
  {
    Arena arena;
    std::string transient = "MERGE INTO t USING s ON t.id = s.id WHEN 'it''s' THEN x";
    stmt = sql::ParseStatement(transient, &arena)->CloneStatement();
    // `transient` and the arena die here; the heap clone must survive.
  }
  const auto* unknown = stmt->As<sql::UnknownStatement>();
  ASSERT_NE(unknown, nullptr);
  ASSERT_FALSE(unknown->tokens.empty());
  bool saw_normalized = false;
  for (const Token& t : unknown->tokens) {
    if (t.normalized) saw_normalized = true;
    if (t.kind == TokenKind::kIdentifier || t.kind == TokenKind::kKeyword) {
      EXPECT_FALSE(t.text.empty());
    }
  }
  EXPECT_TRUE(saw_normalized);  // 'it''s' forces an owned payload
  EXPECT_EQ(unknown->tokens.front().text, "MERGE");
}

TEST(TokenRoundTripTest, UnterminatedQuoteBodyPastTrimIsPreserved) {
  // An unterminated string at end-of-input keeps its trailing whitespace in
  // the token text, but Trim strips it from raw_sql — the adopted token must
  // take an owned copy rather than a (truncated) view of raw_sql.
  Arena arena;
  sql::StatementPtr stmt = sql::ParseStatement("GRANT 'abc  ", &arena);
  const auto* unknown = stmt->As<sql::UnknownStatement>();
  ASSERT_NE(unknown, nullptr);
  ASSERT_GE(unknown->tokens.size(), 2u);
  EXPECT_EQ(std::string_view(unknown->raw_sql), "GRANT 'abc");
  EXPECT_EQ(unknown->tokens[1].kind, TokenKind::kString);
  EXPECT_EQ(unknown->tokens[1].text, "abc  ");
  // Clone must re-rebase the owned payload too.
  sql::StatementPtr clone = stmt->CloneStatement();
  EXPECT_EQ(clone->As<sql::UnknownStatement>()->tokens[1].text, "abc  ");
}

// --------------------------- Zero-allocation -------------------------------

TEST(ZeroAllocTest, SteadyStateParsePathDoesNotTouchTheHeap) {
  // Statements chosen to cover the common shapes (no casts — TypeName
  // rendering for casts builds a transient std::string, which is fine but
  // not part of the steady-state contract being spot-checked).
  const std::string_view statements[] = {
      "SELECT u.id, u.name FROM users u JOIN orders o ON u.id = o.user_id "
      "WHERE o.total > 100 AND u.status = 'active' ORDER BY u.created_at DESC LIMIT 10",
      "INSERT INTO logs (user_id, action) VALUES (1, 'login')",
      "UPDATE users SET name = 'x', updated_at = 12345 WHERE id = 7",
      "DELETE FROM sessions WHERE expires_at < 9999",
      "SELECT COUNT(*) FROM t WHERE a BETWEEN 1 AND 5 AND b LIKE '%x%' GROUP BY c",
  };
  Arena arena;
  sql::TokenBuffer buffer;
  // Warm-up passes grow the arena chunks / token buffer capacity to their
  // steady-state sizes (Reset retains them).
  for (int pass = 0; pass < 3; ++pass) {
    arena.Reset();
    for (std::string_view s : statements) {
      sql::StatementPtr stmt = sql::ParseStatement(s, &arena, &buffer);
      ASSERT_NE(stmt, nullptr);
    }
  }
  arena.Reset();
  size_t before = g_heap_allocations.load();
  for (std::string_view s : statements) {
    sql::StatementPtr stmt = sql::ParseStatement(s, &arena, &buffer);
    if (stmt == nullptr) std::abort();  // no gtest allocations inside the region
  }
  size_t after = g_heap_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "steady-state arena parse performed heap allocations";
}

// ------------------------ Alias-map regression -----------------------------

TEST(AliasMapRegressionTest, MixedCaseAliasResolvesToTable) {
  Arena arena;
  sql::StatementPtr stmt = sql::ParseStatement(
      "SELECT e.salary FROM Emp E WHERE e.id = 10 AND E.dept = 'sales'", &arena);
  QueryFacts facts = AnalyzeQuery(*stmt);
  ASSERT_EQ(facts.predicates.size(), 2u);
  EXPECT_EQ(facts.predicates[0].table, "Emp");
  EXPECT_EQ(facts.predicates[0].column, "id");
  EXPECT_EQ(facts.predicates[1].table, "Emp");
  ASSERT_EQ(facts.tables.size(), 1u);
  EXPECT_EQ(facts.tables[0], "Emp");
}

TEST(AliasMapRegressionTest, UnaliasedMixedCaseQualifier) {
  Arena arena;
  sql::StatementPtr stmt = sql::ParseStatement(
      "SELECT 1 FROM Users WHERE USERS.id = 3 AND users.age > 2", &arena);
  QueryFacts facts = AnalyzeQuery(*stmt);
  ASSERT_EQ(facts.predicates.size(), 2u);
  // Both spellings resolve through the case-insensitive binding to the
  // declared table name.
  EXPECT_EQ(facts.predicates[0].table, "Users");
  EXPECT_EQ(facts.predicates[1].table, "Users");
}

// -------------------------- Splitter regression ----------------------------

TEST(SplitterRegressionTest, BeginWorkIsTransactional) {
  // BEGIN WORK is transaction control, not a compound-statement opener; it
  // must not swallow the following statements into one piece.
  auto parts = sql::SplitStatements("BEGIN WORK; SELECT 1; COMMIT; SELECT 2");
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "BEGIN WORK");
  EXPECT_EQ(parts[1], "SELECT 1");
}

}  // namespace
}  // namespace sqlcheck
