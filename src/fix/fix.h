#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fix/verify.h"
#include "rules/rule.h"

namespace sqlcheck {

/// \brief How a fix is delivered (§6): a mechanical rewrite when the
/// transformation is non-ambiguous, otherwise a context-tailored textual fix
/// the developer applies manually.
enum class FixKind { kRewrite, kTextual };

/// \brief One edit of a statement's source text: replace the `length` bytes
/// at `offset` with `text` (an insertion when `length` is 0). Offsets are
/// bytes into the statement's trimmed text (Statement::raw_sql).
struct SourceEdit {
  uint32_t offset = 0;
  uint32_t length = 0;
  std::string text;
};

/// \brief `text` with `edits` (in offset order, non-overlapping) applied,
/// appended to `*out`. Bytes outside the edited spans are copied unchanged.
void AppendSpliced(std::string* out, std::string_view text,
                   const std::vector<SourceEdit>& edits);

/// \brief One suggested fix for a detection.
///
/// `kRewrite` fixes produced by the built-in fixers are *self-verified*
/// before they leave the FixEngine, through the tiered pipeline in
/// fix/verify.h: every rewritten statement must re-lex and re-parse cleanly
/// (Tier 1), re-analysis with the originating rule must no longer report the
/// anti-pattern (Tier 2), and — when differential execution is enabled —
/// original and rewrite must execute to equivalent results on an ephemeral
/// seeded database under the fixer's equivalence contract (Tier 3). A
/// proposal that fails verification is demoted to `kTextual` with the reason
/// in `verify_note`, so a consumer can trust that `kind == kRewrite &&
/// verified` means "safe to apply mechanically".
struct Fix {
  AntiPattern type = AntiPattern::kColumnWildcard;
  FixKind kind = FixKind::kTextual;
  std::string original_sql;            ///< The offending statement; for data
                                       ///< anti-patterns, the owning table's DDL
                                       ///< (or "table.column") so emitters can
                                       ///< always anchor a location.
  std::vector<std::string> statements; ///< New/rewritten SQL to apply, in order.
  /// For a statement-replacing rewrite, the source edits that turn
  /// original_sql into statements[0] (offset order, non-overlapping). SARIF
  /// `fixes[]` and --apply splice these into the workload text, so every
  /// byte outside them (comments, layout) survives.
  std::vector<SourceEdit> edits;
  std::vector<std::string> impacted_queries;  ///< Other workload queries the fix
                                              ///< touches (Algorithm 4's I set).
  std::string explanation;             ///< Why, and what to do when kind==kTextual.

  /// statements[0..] *replace* the offending statement in place (query-shape
  /// rewrites). False for additive fixes (new DDL the developer runs once).
  bool replaces_original = false;
  /// The rewrite passed the verification pipeline (see verify_tier for how
  /// far it climbed).
  bool verified = false;
  /// Highest verification tier the proposal reached: kParse/kAnalysis from
  /// the re-parse + re-analysis loop, kExec when differential execution
  /// proved result equivalence under the fixer's declared contract. kNone
  /// for textual fixes and demoted proposals.
  VerifyTier verify_tier = VerifyTier::kNone;
  /// Why a proposed rewrite was demoted to kTextual, or what Tier 3 observed
  /// ("" for a clean, unremarkable pass).
  std::string verify_note;
};

/// \brief Finds the offending statements of statement-replacing fixes in the
/// workload text they were read from. Statements are stored as trimmed
/// substrings of the source, so a statement's exact bytes, bounded by `;`
/// or the text's edge, locate it. Each (type, statement text) keeps a
/// cursor, so repeated offending statements anchor to successive
/// occurrences instead of all to the first: same-type duplicates rank
/// adjacently in stream order. The SARIF emitter and ApplyFixes share it.
class FixLocator {
 public:
  explicit FixLocator(std::string_view content) : content_(content) {}

  /// Offset of `fix.original_sql`'s next occurrence in the content, or
  /// std::string_view::npos.
  size_t Locate(const Fix& fix);

 private:
  std::string_view content_;
  std::unordered_map<std::string, size_t> cursors_;
};

}  // namespace sqlcheck
