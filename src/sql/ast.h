#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <memory_resource>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sql/token.h"

namespace sqlcheck::sql {

// ---------------------------------------------------------------------------
// Allocation model
// ---------------------------------------------------------------------------
//
// AST nodes live in one of two tiers:
//
//  * Arena tier (the hot path): the parser places nodes in a Context-owned
//    Arena and every string/vector member draws from the same arena through
//    `std::pmr`. Nothing is heap-allocated per node, and nothing is freed
//    per node either — `AstDelete` sees `arena_managed` and skips the
//    destructor entirely; the arena reclaims everything wholesale. This is
//    only safe because arena nodes never own heap memory, which is why every
//    member below is a pmr type or a trivially-destructible value.
//
//  * Heap tier (tests, engine clones, hand-built trees): default-
//    constructed nodes use the default memory resource (new/delete) and
//    `AstDelete` runs the normal destructor. Semantics are exactly the
//    pre-arena ones.
//
// The two tiers share one node type; `ExprPtr`/`StatementPtr` carry the
// stateless `AstDelete` so ownership code is identical in both. Do not mix
// tiers inside one tree: a tree is uniformly arena (parser-built with an
// arena) or uniformly heap (everything else).

/// String/vector member types for AST nodes. `AstString` keeps short
/// payloads inline (SSO) and spills long ones to the node's memory resource;
/// it converts implicitly to `std::string_view` and assigns from any
/// string-like, so most call sites read like plain `std::string`.
using AstString = std::pmr::string;
template <typename T>
using AstVector = std::pmr::vector<T>;

struct Expr;
struct Statement;
struct SelectStatement;

/// Copies an AST string list into owned std::strings — the boundary helper
/// for layers (catalog, facts, reports) that keep their own storage.
std::vector<std::string> ToStringVector(const AstVector<AstString>& v);

/// \brief Deleter shared by all AST owning pointers: deletes heap-tier
/// nodes, leaves arena-tier nodes for their arena to reclaim.
struct AstDelete {
  void operator()(Expr* e) const;
  void operator()(Statement* s) const;
};

using ExprPtr = std::unique_ptr<Expr, AstDelete>;
using StatementPtr = std::unique_ptr<Statement, AstDelete>;
using SelectPtr = std::unique_ptr<SelectStatement, AstDelete>;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/// \brief Discriminant for the single-struct expression tree.
///
/// A flat tagged struct (rather than a class hierarchy) keeps cloning,
/// printing, and rule-side pattern matching simple — the same trade-off the
/// paper's annotated `sqlparse` tree makes.
enum class ExprKind {
  kNullLiteral,
  kBoolLiteral,    ///< text is "true"/"false".
  kNumberLiteral,  ///< text is the literal spelling.
  kStringLiteral,  ///< text is the unquoted payload.
  kParam,          ///< text is the placeholder spelling (?, :x, $1, %s).
  kColumnRef,      ///< name_parts holds the qualifier chain (t, col).
  kStar,           ///< `*` or `t.*` (qualifier in name_parts).
  kUnary,          ///< text is the operator (NOT, -); one child.
  kBinary,         ///< text is the operator; children[0] op children[1].
  kLike,           ///< children[0] LIKE children[1] [ESCAPE children[2]]; text is
                   ///< LIKE/ILIKE/REGEXP/...
  kIsNull,         ///< children[0] IS [NOT] NULL (negated flag).
  kIn,             ///< children[0] IN (children[1..]); or subquery child.
  kBetween,        ///< children[0] BETWEEN children[1] AND children[2].
  kFunction,       ///< text is the function name; children are args.
  kCase,           ///< children: [operand?], then WHEN/THEN pairs, then ELSE?.
  kExists,         ///< EXISTS (subquery).
  kSubquery,       ///< Scalar subquery.
  kCast,           ///< CAST(children[0] AS text) or children[0]::text.
  kRaw,            ///< Unparsed fallback — non-validating placeholder.
};

/// \brief One node of the expression tree.
struct Expr {
  ExprKind kind = ExprKind::kRaw;
  bool negated = false;        ///< NOT LIKE / NOT IN / NOT BETWEEN / IS NOT NULL.
  bool distinct_arg = false;   ///< COUNT(DISTINCT x) style.
  bool arena_managed = false;  ///< Set by the parser for arena-tier nodes.
  /// Source span [begin, end) in the parsed statement's raw_sql, set by the
  /// parser (0, 0 on hand-built nodes). A parenthesized expression's span
  /// includes its parentheses. Source edits (fix/rewriter.h) address these.
  uint32_t begin = 0;
  uint32_t end = 0;
  AstString text;                    ///< Operator / function name / literal payload.
  AstVector<AstString> name_parts;   ///< Column qualifier chain for kColumnRef/kStar.
  AstVector<ExprPtr> children;
  SelectPtr subquery;                ///< For kSubquery/kExists/kIn-subquery.

  Expr() = default;
  explicit Expr(std::pmr::memory_resource* mr)
      : text(mr), name_parts(mr), children(mr) {}
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;

  /// Deep copy onto the heap tier (the engine transforms copies, never the
  /// originals; clones of arena nodes safely outlive the arena).
  ExprPtr Clone() const;

  /// Unqualified column name ("" when not a column ref). The view borrows
  /// from this node.
  std::string_view ColumnName() const;
  /// Table qualifier for a column ref ("" when unqualified).
  std::string_view TableQualifier() const;
};

/// Heap-tier constructors for trees the engine synthesizes (USING join
/// conditions).
ExprPtr MakeColumnRef(std::vector<std::string> name_parts);
ExprPtr MakeBinary(std::string op, ExprPtr lhs, ExprPtr rhs);

/// \brief Depth-first visit of an expression tree. Subqueries are not
/// entered.
void VisitExpr(const Expr& expr, const std::function<void(const Expr&)>& fn);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StatementKind {
  kSelect,
  kInsert,
  kUpdate,
  kDelete,
  kCreateTable,
  kCreateIndex,
  kAlterTable,
  kDropTable,
  kDropIndex,
  kUnknown,
};

const char* StatementKindName(StatementKind kind);

enum class JoinType { kInner, kLeft, kRight, kFull, kCross };

struct TableRef {
  AstString name;   ///< Empty when this is a subquery source.
  AstString alias;  ///< Empty when not aliased.
  SelectPtr subquery;

  TableRef() = default;
  explicit TableRef(std::pmr::memory_resource* mr) : name(mr), alias(mr) {}
  TableRef(TableRef&&) = default;
  TableRef& operator=(TableRef&&) = default;

  TableRef Clone() const;
  /// The name queries refer to this source by (alias if set, else name).
  const AstString& EffectiveName() const { return alias.empty() ? name : alias; }
};

struct JoinClause {
  JoinType type = JoinType::kInner;
  TableRef table;
  ExprPtr on;                          ///< Null for CROSS / USING joins.
  AstVector<AstString> using_columns;

  JoinClause() = default;
  explicit JoinClause(std::pmr::memory_resource* mr) : table(mr), using_columns(mr) {}

  JoinClause Clone() const;
};

struct SelectItem {
  ExprPtr expr;
  AstString alias;

  SelectItem() = default;
  explicit SelectItem(std::pmr::memory_resource* mr) : alias(mr) {}

  SelectItem Clone() const;
};

struct OrderItem {
  ExprPtr expr;
  bool descending = false;

  OrderItem Clone() const;
};

/// \brief Base statement. Concrete statements derive and carry their clauses.
struct Statement {
  StatementKind kind = StatementKind::kUnknown;
  bool arena_managed = false;  ///< Set by the parser for arena-tier nodes.
  AstString raw_sql;  ///< Original text (trimmed), kept for reporting. Owned
                      ///< by the statement; stable for the statement's life.

  explicit Statement(StatementKind k) : kind(k) {}
  Statement(StatementKind k, std::pmr::memory_resource* mr) : kind(k), raw_sql(mr) {}
  Statement(const Statement&) = delete;
  Statement& operator=(const Statement&) = delete;
  virtual ~Statement() = default;

  /// Deep copy onto the heap tier.
  virtual StatementPtr CloneStatement() const = 0;

  template <typename T>
  const T* As() const {
    return kind == T::kKind ? static_cast<const T*>(this) : nullptr;
  }
  template <typename T>
  T* As() {
    return kind == T::kKind ? static_cast<T*>(this) : nullptr;
  }
};

struct SelectStatement : Statement {
  static constexpr StatementKind kKind = StatementKind::kSelect;
  SelectStatement() : Statement(kKind) {}
  explicit SelectStatement(std::pmr::memory_resource* mr)
      : Statement(kKind, mr), items(mr), from(mr), joins(mr), group_by(mr), order_by(mr) {}

  bool distinct = false;
  AstVector<SelectItem> items;
  AstVector<TableRef> from;  ///< Comma-separated sources (implicit cross join).
  AstVector<JoinClause> joins;
  ExprPtr where;
  AstVector<ExprPtr> group_by;
  ExprPtr having;
  AstVector<OrderItem> order_by;
  std::optional<int64_t> limit;
  std::optional<int64_t> offset;
  /// Offset in raw_sql just past the FROM/JOIN clauses: where a WHERE clause
  /// goes when the statement has none.
  uint32_t where_pos = 0;

  SelectPtr CloneSelect() const;
  StatementPtr CloneStatement() const override;

  /// Appends all source names (tables + join tables, subqueries included),
  /// in syntactic order; views borrow from this statement.
  void CollectReferencedTables(std::vector<std::string_view>* out) const;
  /// Total number of JOIN clauses (explicit joins + implicit comma joins).
  int JoinCount() const;
};

struct InsertStatement : Statement {
  static constexpr StatementKind kKind = StatementKind::kInsert;
  InsertStatement() : Statement(kKind) {}
  explicit InsertStatement(std::pmr::memory_resource* mr)
      : Statement(kKind, mr), table(mr), columns(mr), rows(mr) {}

  AstString table;
  uint32_t table_end = 0;        ///< Offset in raw_sql just past the table name.
  AstVector<AstString> columns;  ///< Empty => implicit column list (an AP!).
  AstVector<AstVector<ExprPtr>> rows;
  SelectPtr select;  ///< INSERT ... SELECT form.
  bool or_replace = false;

  StatementPtr CloneStatement() const override;
};

struct UpdateStatement : Statement {
  static constexpr StatementKind kKind = StatementKind::kUpdate;
  UpdateStatement() : Statement(kKind) {}
  explicit UpdateStatement(std::pmr::memory_resource* mr)
      : Statement(kKind, mr), table(mr), alias(mr), assignments(mr) {}

  AstString table;
  AstString alias;
  AstVector<std::pair<AstString, ExprPtr>> assignments;
  ExprPtr where;

  StatementPtr CloneStatement() const override;
};

struct DeleteStatement : Statement {
  static constexpr StatementKind kKind = StatementKind::kDelete;
  DeleteStatement() : Statement(kKind) {}
  explicit DeleteStatement(std::pmr::memory_resource* mr)
      : Statement(kKind, mr), table(mr) {}

  AstString table;
  ExprPtr where;

  StatementPtr CloneStatement() const override;
};

// --------------------------------- DDL ------------------------------------

/// \brief Type name as written (resolution to catalog types happens later).
struct TypeName {
  AstString name;               ///< Upper/lower as written; compare case-insensitively.
  AstVector<int64_t> params;    ///< VARCHAR(30) -> {30}; NUMERIC(10,2) -> {10,2}.
  AstVector<AstString> enum_values;  ///< ENUM('a','b') members.
  bool with_time_zone = false;  ///< TIMESTAMP WITH TIME ZONE / TIMESTAMPTZ.

  TypeName() = default;
  explicit TypeName(std::pmr::memory_resource* mr)
      : name(mr), params(mr), enum_values(mr) {}
  TypeName(TypeName&&) = default;
  TypeName& operator=(TypeName&&) = default;
  TypeName(const TypeName&) = default;
  TypeName& operator=(const TypeName&) = default;

  std::string ToString() const;
};

struct ForeignKeyRefAst {
  AstString table;
  AstVector<AstString> columns;  ///< May be empty (references PK implicitly).
  bool on_delete_cascade = false;

  ForeignKeyRefAst() = default;
  explicit ForeignKeyRefAst(std::pmr::memory_resource* mr) : table(mr), columns(mr) {}
};

struct ColumnDefAst {
  AstString name;
  TypeName type;
  bool not_null = false;
  bool primary_key = false;
  bool unique = false;
  bool auto_increment = false;
  ExprPtr default_value;
  ExprPtr check;  ///< Column-level CHECK expression.
  std::optional<ForeignKeyRefAst> references;

  ColumnDefAst() = default;
  explicit ColumnDefAst(std::pmr::memory_resource* mr) : name(mr), type(mr) {}

  ColumnDefAst Clone() const;
};

enum class TableConstraintKind { kPrimaryKey, kForeignKey, kUnique, kCheck };

struct TableConstraintAst {
  TableConstraintKind kind = TableConstraintKind::kPrimaryKey;
  AstString name;  ///< CONSTRAINT <name>, may be empty.
  AstVector<AstString> columns;
  ForeignKeyRefAst reference;  ///< For kForeignKey.
  ExprPtr check;               ///< For kCheck.

  TableConstraintAst() = default;
  explicit TableConstraintAst(std::pmr::memory_resource* mr)
      : name(mr), columns(mr), reference(mr) {}

  TableConstraintAst Clone() const;
};

struct CreateTableStatement : Statement {
  static constexpr StatementKind kKind = StatementKind::kCreateTable;
  CreateTableStatement() : Statement(kKind) {}
  explicit CreateTableStatement(std::pmr::memory_resource* mr)
      : Statement(kKind, mr), table(mr), columns(mr), constraints(mr) {}

  AstString table;
  bool if_not_exists = false;
  AstVector<ColumnDefAst> columns;
  AstVector<TableConstraintAst> constraints;

  StatementPtr CloneStatement() const override;

  const ColumnDefAst* FindColumn(std::string_view name) const;
  bool HasPrimaryKey() const;
  bool HasForeignKey() const;
};

struct CreateIndexStatement : Statement {
  static constexpr StatementKind kKind = StatementKind::kCreateIndex;
  CreateIndexStatement() : Statement(kKind) {}
  explicit CreateIndexStatement(std::pmr::memory_resource* mr)
      : Statement(kKind, mr), index(mr), table(mr), columns(mr) {}

  AstString index;
  AstString table;
  AstVector<AstString> columns;
  bool unique = false;
  bool if_not_exists = false;

  StatementPtr CloneStatement() const override;
};

enum class AlterAction {
  kAddColumn,
  kDropColumn,
  kAddConstraint,
  kDropConstraint,
  kAlterColumnType,
  kRenameTable,
  kRenameColumn,
  kUnknown,
};

struct AlterTableStatement : Statement {
  static constexpr StatementKind kKind = StatementKind::kAlterTable;
  AlterTableStatement() : Statement(kKind) {}
  explicit AlterTableStatement(std::pmr::memory_resource* mr)
      : Statement(kKind, mr),
        table(mr),
        column(mr),
        target_name(mr),
        new_name(mr),
        constraint(mr) {}

  AstString table;
  AlterAction action = AlterAction::kUnknown;
  ColumnDefAst column;            ///< For add-column / alter-type.
  AstString target_name;          ///< Column or constraint being dropped/renamed.
  AstString new_name;             ///< For renames.
  TableConstraintAst constraint;  ///< For add-constraint.
  bool if_exists = false;

  StatementPtr CloneStatement() const override;
};

struct DropTableStatement : Statement {
  static constexpr StatementKind kKind = StatementKind::kDropTable;
  DropTableStatement() : Statement(kKind) {}
  explicit DropTableStatement(std::pmr::memory_resource* mr)
      : Statement(kKind, mr), table(mr) {}

  AstString table;
  bool if_exists = false;

  StatementPtr CloneStatement() const override;
};

struct DropIndexStatement : Statement {
  static constexpr StatementKind kKind = StatementKind::kDropIndex;
  DropIndexStatement() : Statement(kKind) {}
  explicit DropIndexStatement(std::pmr::memory_resource* mr)
      : Statement(kKind, mr), index(mr) {}

  AstString index;
  bool if_exists = false;

  StatementPtr CloneStatement() const override;
};

/// \brief Non-validating fallback: the token run of an unparseable statement.
///
/// The stored tokens are self-contained: `AdoptTokens` rebases every view
/// onto this statement's own `raw_sql` (or `owned_texts` for normalized
/// payloads), so they stay valid for the statement's lifetime regardless of
/// what happens to the lex-time source buffer or TokenBuffer.
struct UnknownStatement : Statement {
  static constexpr StatementKind kKind = StatementKind::kUnknown;
  UnknownStatement() : Statement(kKind) {}
  explicit UnknownStatement(std::pmr::memory_resource* mr)
      : Statement(kKind, mr), tokens(mr), owned_texts(mr) {}

  AstVector<Token> tokens;
  AstVector<AstString> owned_texts;  ///< Normalized payloads, in token order.

  /// Copies `source_tokens` (lexed from `lex_source`, of which `raw_sql`
  /// must be the trimmed substring) and rebases every text view onto
  /// `raw_sql`/`owned_texts`. Call after `raw_sql` is set, never mutate
  /// `raw_sql`/`owned_texts` afterwards.
  void AdoptTokens(const std::vector<Token>& source_tokens, std::string_view lex_source);

  StatementPtr CloneStatement() const override;
};

}  // namespace sqlcheck::sql
