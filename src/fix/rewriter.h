#pragma once

#include <string>
#include <vector>

#include "analysis/context.h"
#include "common/arena.h"
#include "fix/fix.h"
#include "rules/rule.h"
#include "sql/ast.h"
#include "sql/lexer.h"

namespace sqlcheck {

// ---------------------------------------------------------------------------
// Source-edit rewrites (ap-fix, §6.1)
// ---------------------------------------------------------------------------
//
// Each function reads the offending statement's parse tree and returns the
// edits of its source text (Statement::raw_sql) that apply the
// transformation, addressed by the parser's expression spans. The fix is
// that text with the edits spliced in (AppendSpliced), so every byte the
// transformation does not touch (comments, layout, clauses the tree does
// not model) survives. An empty result means the transformation is
// ambiguous for this statement (missing catalog entry, subquery source,
// pattern that cannot be mechanically reversed, ...) and the caller should
// fall back to a textual fix.
using SourceEdits = std::vector<SourceEdit>;

/// Expands `SELECT *` / `SELECT t.*` into the concrete column list from the
/// catalog. Columns are qualified with the source's effective name (alias if
/// set) when the statement reads more than one source; a qualified star
/// expands only its own table. Empty when any source is a subquery or any
/// referenced table is missing from the catalog (a qualified `archive.t`
/// the catalog does not define included), and for a bare * over a USING
/// join (the * lists each USING column once).
SourceEdits ExpandWildcard(const sql::SelectStatement& select, const Context& context);

/// Names the target columns of an implicit-column INSERT from the catalog:
/// inserts ` (cols)` after the table name. Empty when the table is unknown,
/// when a VALUES row's arity does not match the schema, or when an INSERT
/// ... SELECT list has a * or the wrong width (the statement is already
/// broken; guessing would mask it).
SourceEdits ExpandInsertColumns(const sql::InsertStatement& insert,
                                const Context& context);

/// Replaces `ORDER BY RAND() ... LIMIT n` with a random primary-key range
/// probe: `WHERE pk >= (SELECT FLOOR(RAND() * MAX(pk)) FROM t) ORDER BY pk
/// LIMIT n` — the paper's "pick a random key" fix. An existing WHERE becomes
/// `old AND probe`, parenthesized only when `old` is an OR. Empty unless the
/// statement reads exactly one cataloged table with a single-column primary
/// key, orders by ascending RAND()/RANDOM() alone, and carries a LIMIT
/// (without one the shuffle semantics cannot be preserved).
SourceEdits ReplaceOrderByRand(const sql::SelectStatement& select,
                               const Context& context);

/// Rewrites index-hostile leading-wildcard LIKE predicates `col LIKE '%tail'`
/// as `REVERSE(col) LIKE 'liat%'`, which a functional index on REVERSE(col)
/// can serve. Only literal ASCII patterns with a single leading `%`, no
/// other wildcards and no ESCAPE clause are reversed; empty when no
/// predicate qualifies.
SourceEdits RewriteLeadingWildcards(const sql::SelectStatement& select);

/// Wraps nullable column refs appearing under `||` / CONCAT in the select
/// list and WHERE clause in COALESCE(col, '') so one NULL field no longer
/// voids the concatenation. Nullability comes from the catalog (unknown
/// tables count as nullable). Empty when no operand was wrapped (the concat
/// lives in a clause this transformation does not reach, or every operand
/// is NOT NULL).
SourceEdits WrapConcatNulls(const sql::SelectStatement& select, const Context& context);

// ---------------------------------------------------------------------------
// Rewrite verification
// ---------------------------------------------------------------------------

struct RewriteCheck {
  bool ok = false;
  std::string reason;  ///< Why verification failed ("" when ok).
};

/// The self-verification loop every kRewrite proposal must pass (SQLRepair's
/// lesson: an unvalidated repair is a liability): each rewritten statement
/// must re-lex/re-parse to a recognized statement kind, and — when the
/// originating rule is available — re-analysis of the statement against the
/// current context must no longer report `fix.type`. The FixEngine demotes
/// proposals that fail to kTextual, carrying `reason` in Fix::verify_note.
///
/// Each rewritten statement is parsed onto the scratch arena `scratch`,
/// reset before every statement, with `tokens` as lexer storage; nothing is
/// parsed onto the heap. The FixEngine passes an arena that lives for one
/// report and the session's TokenBuffer. Null arguments fall back to
/// call-local storage.
RewriteCheck VerifyRewrite(const Fix& fix, const Rule* rule, const Context& context,
                           const DetectorConfig& config, Arena* scratch = nullptr,
                           sql::TokenBuffer* tokens = nullptr);

}  // namespace sqlcheck
