#pragma once

#include <cstdint>
#include <string_view>

namespace sqlcheck::sql {

/// \brief Dense ids for the SQL keyword table, precomputed by the lexer so
/// keyword dispatch in the parser/splitter is one integer compare instead of
/// a case-insensitive string compare per probe. `kNoKeyword` marks tokens
/// that are not keywords.
///
/// The set spans the dialects sqlcheck targets (PostgreSQL, MySQL, SQLite,
/// SQL Server) and is exactly the word list grammar rules key off — the
/// lexer is non-validating, so unknown words simply lex as identifiers.
enum class KeywordId : uint8_t {
  kNoKeyword = 0,
  kSelect, kFrom, kWhere, kGroup, kBy,
  kHaving, kOrder, kLimit, kOffset, kInsert,
  kInto, kValues, kUpdate, kSet, kDelete,
  kCreate, kTable, kIndex, kView, kDrop,
  kAlter, kAdd, kColumn, kConstraint, kPrimary,
  kKey, kForeign, kReferences, kUnique, kCheck,
  kNot, kNull, kDefault, kAnd, kOr,
  kIn, kBetween, kLike, kIlike, kRegexp,
  kRlike, kSimilar, kIs, kAs, kOn,
  kJoin, kInner, kLeft, kRight, kFull,
  kOuter, kCross, kNatural, kUsing, kUnion,
  kAll, kDistinct, kExists, kCase, kWhen,
  kThen, kElse, kEnd, kAsc, kDesc,
  kIf, kCascade, kRestrict, kTrue, kFalse,
  kEnum, kAutoIncrement, kAutoincrement, kSerial,
  kTemporary, kTemp, kEscape, kCollate, kRename,
  kTo, kType, kModify, kChange, kWith,
  kRecursive, kReturning, kConflict, kReplace, kIgnore,
  kExplain, kAnalyze, kVacuum, kBegin, kCommit,
  kRollback, kTransaction, kGrant, kRevoke, kTruncate,
  kIntersect, kExcept, kAny, kSome, kCast,
};

/// \brief Keyword id for `word` (ASCII-case-insensitive), or `kNoKeyword`.
/// Allocation-free.
KeywordId LookupKeyword(std::string_view word);

}  // namespace sqlcheck::sql
