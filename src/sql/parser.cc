#include "sql/parser.h"

#include <charconv>

#include "common/strings.h"
#include "sql/lexer_detail.h"
#include "sql/splitter.h"

namespace sqlcheck::sql {

namespace {

using Kw = KeywordId;
using lexer_detail::OpCode;

/// Recursive-descent parser over the lexed token stream. `ok_` latches false
/// on the first construct we cannot handle; the caller then falls back to an
/// UnknownStatement so detection rules degrade gracefully instead of erroring.
///
/// With an arena, every node (and through `std::pmr`, every node member) is
/// bump-allocated — the steady-state parse path performs zero heap
/// allocations. Without one, nodes are ordinary heap objects (used by tests
/// and one-off callers). Keyword dispatch is by precomputed KeywordId, so no
/// token comparison re-examines string bytes.
class Parser {
 public:
  Parser(const std::vector<Token>& tokens, Arena* arena)
      : tokens_(tokens),
        arena_(arena),
        mr_(arena != nullptr ? static_cast<std::pmr::memory_resource*>(arena)
                             : std::pmr::get_default_resource()) {}

  StatementPtr Parse(std::string_view raw) {
    StatementPtr stmt = ParseStatementTop();
    // Trailing semicolon is fine; anything else unparsed means we mis-read.
    Match(TokenKind::kSemicolon);
    if (!ok_ || stmt == nullptr || !Peek().Is(TokenKind::kEnd)) {
      auto unknown = NewStmt<UnknownStatement>();
      unknown->raw_sql = Trim(raw);
      unknown->AdoptTokens(tokens_, raw);
      return unknown;
    }
    stmt->raw_sql = Trim(raw);
    stmt->skipped_source = skipped_;
    return stmt;
  }

 private:
  // ------------------------------ plumbing --------------------------------
  /// Places a node in the arena when present (destructor skipped — all its
  /// members draw from the arena), else on the heap.
  template <typename T>
  std::unique_ptr<T, AstDelete> NewStmt() {
    if (arena_ != nullptr) {
      T* node = arena_->New<T>(mr_);
      node->arena_managed = true;
      return std::unique_ptr<T, AstDelete>(node);
    }
    return std::unique_ptr<T, AstDelete>(new T());
  }

  ExprPtr NewExpr(ExprKind kind) {
    Expr* node;
    if (arena_ != nullptr) {
      node = arena_->New<Expr>(mr_);
      node->arena_managed = true;
    } else {
      node = new Expr();
    }
    node->kind = kind;
    return ExprPtr(node);
  }

  ExprPtr NewBinary(std::string_view op, ExprPtr lhs, ExprPtr rhs) {
    ExprPtr e = NewExpr(ExprKind::kBinary);
    e->text = op;
    e->children.push_back(std::move(lhs));
    e->children.push_back(std::move(rhs));
    return e;
  }

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() {
    const Token& t = Peek();
    if (pos_ < tokens_.size() - 1) ++pos_;
    return t;
  }
  bool Match(TokenKind kind) {
    if (Peek().Is(kind)) {
      Advance();
      return true;
    }
    return false;
  }
  bool MatchKeyword(Kw kw) {
    if (Peek().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  bool MatchOperator(uint8_t code) {
    if (Peek().IsOperator(code)) {
      Advance();
      return true;
    }
    return false;
  }
  void Expect(TokenKind kind) {
    if (!Match(kind)) ok_ = false;
  }
  void ExpectKeyword(Kw kw) {
    if (!MatchKeyword(kw)) ok_ = false;
  }

  /// Accepts identifiers, quoted identifiers, and (dialect-tolerantly) any
  /// keyword used as a name (e.g. a column called "type" or "key"). The view
  /// borrows from the token stream — assign it into an AST string before the
  /// next Lex on the same buffer.
  std::string_view ParseName() {
    const Token& t = Peek();
    if (t.Is(TokenKind::kIdentifier) || t.Is(TokenKind::kQuotedIdentifier) ||
        t.Is(TokenKind::kKeyword)) {
      return Advance().text;
    }
    ok_ = false;
    return {};
  }

  /// Strict variant: keywords are NOT acceptable (used where a keyword is a
  /// legitimate clause boundary, e.g. after a table name).
  std::string_view ParseStrictName() {
    const Token& t = Peek();
    if (t.Is(TokenKind::kIdentifier) || t.Is(TokenKind::kQuotedIdentifier)) {
      return Advance().text;
    }
    ok_ = false;
    return {};
  }

  /// A table name. The tree keeps only the last component of a qualified
  /// name (`archive.t` -> `t`), so dropping a qualifier marks the statement
  /// Statement::skipped_source: a rewrite printed from the tree would target
  /// another table.
  std::string_view ParseTableName() {
    std::string_view name = ParseStrictName();
    while (Match(TokenKind::kDot)) {
      name = ParseStrictName();
      skipped_ = true;
    }
    return name;
  }

  static int64_t ParseInt(std::string_view text) {
    int64_t value = 0;
    std::from_chars(text.data(), text.data() + text.size(), value);
    return value;
  }

  std::optional<int64_t> ParseIntLiteral() {
    if (Peek().Is(TokenKind::kNumber)) {
      return ParseInt(Advance().text);
    }
    return std::nullopt;
  }

  // ----------------------------- statements -------------------------------
  StatementPtr ParseStatementTop() {
    const Token& t = Peek();
    if (t.IsKeyword(Kw::kSelect)) return ParseSelect();
    if (t.IsKeyword(Kw::kInsert) || t.IsKeyword(Kw::kReplace)) return ParseInsert();
    if (t.IsKeyword(Kw::kUpdate)) return ParseUpdate();
    if (t.IsKeyword(Kw::kDelete)) return ParseDelete();
    if (t.IsKeyword(Kw::kCreate)) return ParseCreate();
    if (t.IsKeyword(Kw::kAlter)) return ParseAlter();
    if (t.IsKeyword(Kw::kDrop)) return ParseDrop();
    ok_ = false;
    return nullptr;
  }

  SelectPtr ParseSelect() {
    ExpectKeyword(Kw::kSelect);
    SelectPtr stmt = NewStmt<SelectStatement>();
    if (MatchKeyword(Kw::kDistinct)) stmt->distinct = true;
    MatchKeyword(Kw::kAll);

    // Select list.
    do {
      SelectItem item(mr_);
      item.expr = ParseExpr();
      if (MatchKeyword(Kw::kAs)) {
        item.alias = ParseName();
      } else if (Peek().Is(TokenKind::kIdentifier) || Peek().Is(TokenKind::kQuotedIdentifier)) {
        item.alias = Advance().text;
      }
      stmt->items.push_back(std::move(item));
    } while (Match(TokenKind::kComma));

    if (MatchKeyword(Kw::kFrom)) {
      stmt->from.push_back(ParseTableRef());
      while (true) {
        if (Match(TokenKind::kComma)) {
          stmt->from.push_back(ParseTableRef());
          continue;
        }
        std::optional<JoinType> jt = TryParseJoinPrefix();
        if (!jt.has_value()) break;
        JoinClause join(mr_);
        join.type = *jt;
        join.table = ParseTableRef();
        if (MatchKeyword(Kw::kOn)) {
          join.on = ParseExpr();
        } else if (MatchKeyword(Kw::kUsing)) {
          Expect(TokenKind::kLeftParen);
          do {
            join.using_columns.emplace_back(ParseName());
          } while (Match(TokenKind::kComma));
          Expect(TokenKind::kRightParen);
        }
        stmt->joins.push_back(std::move(join));
      }
    }

    if (MatchKeyword(Kw::kWhere)) stmt->where = ParseExpr();
    if (MatchKeyword(Kw::kGroup)) {
      ExpectKeyword(Kw::kBy);
      do {
        stmt->group_by.push_back(ParseExpr());
      } while (Match(TokenKind::kComma));
    }
    if (MatchKeyword(Kw::kHaving)) stmt->having = ParseExpr();
    if (MatchKeyword(Kw::kOrder)) {
      ExpectKeyword(Kw::kBy);
      do {
        OrderItem item;
        item.expr = ParseExpr();
        if (MatchKeyword(Kw::kDesc)) {
          item.descending = true;
        } else {
          MatchKeyword(Kw::kAsc);
        }
        stmt->order_by.push_back(std::move(item));
      } while (Match(TokenKind::kComma));
    }
    if (MatchKeyword(Kw::kLimit)) {
      stmt->limit = ParseIntLiteral();
      if (Match(TokenKind::kComma)) {  // MySQL LIMIT off, count
        stmt->offset = stmt->limit;
        stmt->limit = ParseIntLiteral();
      }
    }
    if (MatchKeyword(Kw::kOffset)) stmt->offset = ParseIntLiteral();
    return stmt;
  }

  std::optional<JoinType> TryParseJoinPrefix() {
    size_t save = pos_;
    JoinType type = JoinType::kInner;
    if (MatchKeyword(Kw::kInner)) {
      type = JoinType::kInner;
    } else if (MatchKeyword(Kw::kLeft)) {
      MatchKeyword(Kw::kOuter);
      type = JoinType::kLeft;
    } else if (MatchKeyword(Kw::kRight)) {
      MatchKeyword(Kw::kOuter);
      type = JoinType::kRight;
    } else if (MatchKeyword(Kw::kFull)) {
      MatchKeyword(Kw::kOuter);
      type = JoinType::kFull;
    } else if (MatchKeyword(Kw::kCross)) {
      type = JoinType::kCross;
    }
    if (MatchKeyword(Kw::kJoin)) return type;
    pos_ = save;
    return std::nullopt;
  }

  TableRef ParseTableRef() {
    TableRef ref(mr_);
    if (Match(TokenKind::kLeftParen)) {
      if (Peek().IsKeyword(Kw::kSelect)) {
        ref.subquery = ParseSelect();
        Expect(TokenKind::kRightParen);
      } else {
        ok_ = false;
        return ref;
      }
    } else {
      ref.name = ParseTableName();
    }
    if (MatchKeyword(Kw::kAs)) {
      ref.alias = ParseName();
    } else if (Peek().Is(TokenKind::kIdentifier) || Peek().Is(TokenKind::kQuotedIdentifier)) {
      ref.alias = Advance().text;
    }
    return ref;
  }

  std::unique_ptr<InsertStatement, AstDelete> ParseInsert() {
    auto stmt = NewStmt<InsertStatement>();
    if (MatchKeyword(Kw::kReplace)) {
      stmt->or_replace = true;
    } else {
      ExpectKeyword(Kw::kInsert);
      if (MatchKeyword(Kw::kOr)) {
        if (MatchKeyword(Kw::kReplace)) stmt->or_replace = true;
        else if (MatchKeyword(Kw::kIgnore)) skipped_ = true;
      }
      if (MatchKeyword(Kw::kIgnore)) skipped_ = true;
    }
    MatchKeyword(Kw::kInto);
    stmt->table = ParseTableName();

    if (Peek().Is(TokenKind::kLeftParen)) {
      // Could be a column list or directly a SELECT subquery.
      size_t save = pos_;
      Advance();
      if (Peek().IsKeyword(Kw::kSelect)) {
        pos_ = save;
      } else {
        do {
          stmt->columns.emplace_back(ParseName());
        } while (Match(TokenKind::kComma));
        Expect(TokenKind::kRightParen);
      }
    }

    if (MatchKeyword(Kw::kValues)) {
      do {
        Expect(TokenKind::kLeftParen);
        AstVector<ExprPtr> row(mr_);
        if (!Peek().Is(TokenKind::kRightParen)) {
          do {
            row.push_back(ParseExpr());
          } while (Match(TokenKind::kComma));
        }
        Expect(TokenKind::kRightParen);
        stmt->rows.push_back(std::move(row));
      } while (Match(TokenKind::kComma));
    } else if (Peek().IsKeyword(Kw::kSelect)) {
      stmt->select = ParseSelect();
    } else if (Match(TokenKind::kLeftParen)) {
      if (Peek().IsKeyword(Kw::kSelect)) {
        stmt->select = ParseSelect();
        Expect(TokenKind::kRightParen);
      } else {
        ok_ = false;
      }
    } else {
      ok_ = false;
    }
    // ON CONFLICT / RETURNING etc. — tolerated by skipping to end.
    SkipToStatementEnd();
    return stmt;
  }

  std::unique_ptr<UpdateStatement, AstDelete> ParseUpdate() {
    ExpectKeyword(Kw::kUpdate);
    auto stmt = NewStmt<UpdateStatement>();
    stmt->table = ParseTableName();
    if (MatchKeyword(Kw::kAs)) {
      stmt->alias = ParseName();
    } else if (Peek().Is(TokenKind::kIdentifier)) {
      stmt->alias = Advance().text;
    }
    ExpectKeyword(Kw::kSet);
    do {
      std::string_view col = ParseName();
      while (Match(TokenKind::kDot)) col = ParseName();
      if (!MatchOperator(OpCode("="))) ok_ = false;
      ExprPtr value = ParseExpr();
      stmt->assignments.emplace_back(col, std::move(value));
    } while (Match(TokenKind::kComma));
    if (MatchKeyword(Kw::kWhere)) stmt->where = ParseExpr();
    SkipToStatementEnd();
    return stmt;
  }

  std::unique_ptr<DeleteStatement, AstDelete> ParseDelete() {
    ExpectKeyword(Kw::kDelete);
    ExpectKeyword(Kw::kFrom);
    auto stmt = NewStmt<DeleteStatement>();
    stmt->table = ParseTableName();
    if (MatchKeyword(Kw::kWhere)) stmt->where = ParseExpr();
    SkipToStatementEnd();
    return stmt;
  }

  StatementPtr ParseCreate() {
    ExpectKeyword(Kw::kCreate);
    MatchKeyword(Kw::kTemporary);
    MatchKeyword(Kw::kTemp);
    bool unique = MatchKeyword(Kw::kUnique);
    if (MatchKeyword(Kw::kIndex)) return ParseCreateIndex(unique);
    if (unique) {
      ok_ = false;
      return nullptr;
    }
    if (MatchKeyword(Kw::kTable)) return ParseCreateTable();
    ok_ = false;  // CREATE VIEW / TRIGGER / ... -> Unknown fallback.
    return nullptr;
  }

  std::unique_ptr<CreateIndexStatement, AstDelete> ParseCreateIndex(bool unique) {
    auto stmt = NewStmt<CreateIndexStatement>();
    stmt->unique = unique;
    if (MatchKeyword(Kw::kIf)) {
      ExpectKeyword(Kw::kNot);
      ExpectKeyword(Kw::kExists);
      stmt->if_not_exists = true;
    }
    stmt->index = ParseStrictName();
    ExpectKeyword(Kw::kOn);
    stmt->table = ParseTableName();
    Expect(TokenKind::kLeftParen);
    do {
      stmt->columns.emplace_back(ParseName());
      MatchKeyword(Kw::kAsc);
      MatchKeyword(Kw::kDesc);
    } while (Match(TokenKind::kComma));
    Expect(TokenKind::kRightParen);
    SkipToStatementEnd();
    return stmt;
  }

  std::unique_ptr<CreateTableStatement, AstDelete> ParseCreateTable() {
    auto stmt = NewStmt<CreateTableStatement>();
    if (MatchKeyword(Kw::kIf)) {
      ExpectKeyword(Kw::kNot);
      ExpectKeyword(Kw::kExists);
      stmt->if_not_exists = true;
    }
    stmt->table = ParseTableName();
    Expect(TokenKind::kLeftParen);
    do {
      if (IsTableConstraintStart()) {
        stmt->constraints.push_back(ParseTableConstraint());
      } else {
        stmt->columns.push_back(ParseColumnDef());
      }
    } while (Match(TokenKind::kComma));
    Expect(TokenKind::kRightParen);
    SkipToStatementEnd();  // engine=..., WITHOUT ROWID, etc.
    return stmt;
  }

  bool IsTableConstraintStart() const {
    const Token& t = Peek();
    if (t.IsKeyword(Kw::kConstraint)) return true;
    if (t.IsKeyword(Kw::kPrimary) && Peek(1).IsKeyword(Kw::kKey)) return true;
    if (t.IsKeyword(Kw::kForeign) && Peek(1).IsKeyword(Kw::kKey)) return true;
    if (t.IsKeyword(Kw::kUnique) && Peek(1).Is(TokenKind::kLeftParen)) return true;
    if (t.IsKeyword(Kw::kCheck) && Peek(1).Is(TokenKind::kLeftParen)) return true;
    return false;
  }

  TableConstraintAst ParseTableConstraint() {
    TableConstraintAst c(mr_);
    if (MatchKeyword(Kw::kConstraint)) c.name = ParseName();
    if (MatchKeyword(Kw::kPrimary)) {
      ExpectKeyword(Kw::kKey);
      c.kind = TableConstraintKind::kPrimaryKey;
      Expect(TokenKind::kLeftParen);
      do {
        c.columns.emplace_back(ParseName());
      } while (Match(TokenKind::kComma));
      Expect(TokenKind::kRightParen);
    } else if (MatchKeyword(Kw::kForeign)) {
      ExpectKeyword(Kw::kKey);
      c.kind = TableConstraintKind::kForeignKey;
      Expect(TokenKind::kLeftParen);
      do {
        c.columns.emplace_back(ParseName());
      } while (Match(TokenKind::kComma));
      Expect(TokenKind::kRightParen);
      ExpectKeyword(Kw::kReferences);
      c.reference = ParseForeignKeyTarget();
    } else if (MatchKeyword(Kw::kUnique)) {
      c.kind = TableConstraintKind::kUnique;
      Expect(TokenKind::kLeftParen);
      do {
        c.columns.emplace_back(ParseName());
      } while (Match(TokenKind::kComma));
      Expect(TokenKind::kRightParen);
    } else if (MatchKeyword(Kw::kCheck)) {
      c.kind = TableConstraintKind::kCheck;
      Expect(TokenKind::kLeftParen);
      c.check = ParseExpr();
      Expect(TokenKind::kRightParen);
    } else {
      ok_ = false;
    }
    return c;
  }

  ForeignKeyRefAst ParseForeignKeyTarget() {
    ForeignKeyRefAst ref(mr_);
    ref.table = ParseTableName();
    if (Match(TokenKind::kLeftParen)) {
      do {
        ref.columns.emplace_back(ParseName());
      } while (Match(TokenKind::kComma));
      Expect(TokenKind::kRightParen);
    }
    while (MatchKeyword(Kw::kOn)) {
      if (MatchKeyword(Kw::kDelete)) {
        if (MatchKeyword(Kw::kCascade)) {
          ref.on_delete_cascade = true;
        } else {
          Advance();  // SET NULL / RESTRICT / NO ACTION — skip one word...
          MatchKeyword(Kw::kNull);  // ("action" lexes as an identifier; the
                                    // trailing word is tolerated by skip-to-end)
        }
      } else if (MatchKeyword(Kw::kUpdate)) {
        if (!MatchKeyword(Kw::kCascade)) {
          Advance();
          MatchKeyword(Kw::kNull);
        }
      } else {
        break;
      }
    }
    return ref;
  }

  ColumnDefAst ParseColumnDef() {
    ColumnDefAst col(mr_);
    col.name = ParseStrictName();
    col.type = ParseTypeName();
    // Column options in any order.
    while (true) {
      if (MatchKeyword(Kw::kNot)) {
        ExpectKeyword(Kw::kNull);
        col.not_null = true;
      } else if (MatchKeyword(Kw::kNull)) {
        // explicit NULLable
      } else if (MatchKeyword(Kw::kPrimary)) {
        ExpectKeyword(Kw::kKey);
        col.primary_key = true;
      } else if (MatchKeyword(Kw::kUnique)) {
        col.unique = true;
      } else if (MatchKeyword(Kw::kAutoIncrement) || MatchKeyword(Kw::kAutoincrement)) {
        col.auto_increment = true;
      } else if (MatchKeyword(Kw::kDefault)) {
        col.default_value = ParsePrimary();
      } else if (MatchKeyword(Kw::kReferences)) {
        col.references = ParseForeignKeyTarget();
      } else if (MatchKeyword(Kw::kCheck)) {
        Expect(TokenKind::kLeftParen);
        col.check = ParseExpr();
        Expect(TokenKind::kRightParen);
      } else if (MatchKeyword(Kw::kCollate)) {
        ParseName();
      } else if (MatchKeyword(Kw::kConstraint)) {
        ParseName();  // named inline constraint; the kind follows next loop.
      } else {
        break;
      }
    }
    return col;
  }

  TypeName ParseTypeName() {
    TypeName type(mr_);
    const Token& t = Peek();
    if (!(t.Is(TokenKind::kIdentifier) || t.Is(TokenKind::kKeyword))) {
      ok_ = false;
      return type;
    }
    type.name = Advance().text;
    // Multi-word types: DOUBLE PRECISION, CHARACTER VARYING, TIMESTAMP WITH(OUT) TIME ZONE.
    if (EqualsIgnoreCase(type.name, "double") && Peek().Is(TokenKind::kIdentifier) &&
        EqualsIgnoreCase(Peek().text, "precision")) {
      type.name += ' ';
      type.name += Advance().text;
    }
    if (EqualsIgnoreCase(type.name, "character") && Peek().Is(TokenKind::kIdentifier) &&
        EqualsIgnoreCase(Peek().text, "varying")) {
      type.name += ' ';
      type.name += Advance().text;
    }
    if (EqualsIgnoreCase(type.name, "enum") && Peek().Is(TokenKind::kLeftParen)) {
      Advance();
      do {
        if (Peek().Is(TokenKind::kString)) {
          type.enum_values.emplace_back(Advance().text);
        } else {
          ok_ = false;
          break;
        }
      } while (Match(TokenKind::kComma));
      Expect(TokenKind::kRightParen);
    } else if (Match(TokenKind::kLeftParen)) {
      do {
        if (Peek().Is(TokenKind::kNumber)) {
          type.params.push_back(ParseInt(Advance().text));
        } else {
          Advance();  // e.g. VARCHAR(MAX)
        }
      } while (Match(TokenKind::kComma));
      Expect(TokenKind::kRightParen);
    }
    // TIMESTAMP/TIME WITH|WITHOUT TIME ZONE.
    if (Peek().IsKeyword(Kw::kWith) && Peek(1).Is(TokenKind::kIdentifier) &&
        EqualsIgnoreCase(Peek(1).text, "time")) {
      Advance();
      Advance();
      if (Peek().Is(TokenKind::kIdentifier) && EqualsIgnoreCase(Peek().text, "zone")) Advance();
      type.with_time_zone = true;
    } else if (Peek().Is(TokenKind::kIdentifier) && EqualsIgnoreCase(Peek().text, "without")) {
      Advance();
      if (Peek().Is(TokenKind::kIdentifier) && EqualsIgnoreCase(Peek().text, "time")) Advance();
      if (Peek().Is(TokenKind::kIdentifier) && EqualsIgnoreCase(Peek().text, "zone")) Advance();
    }
    return type;
  }

  StatementPtr ParseAlter() {
    ExpectKeyword(Kw::kAlter);
    ExpectKeyword(Kw::kTable);
    auto stmt = NewStmt<AlterTableStatement>();
    if (MatchKeyword(Kw::kIf)) {
      ExpectKeyword(Kw::kExists);
      stmt->if_exists = true;
    }
    stmt->table = ParseTableName();

    if (MatchKeyword(Kw::kAdd)) {
      if (IsTableConstraintStart()) {
        stmt->action = AlterAction::kAddConstraint;
        stmt->constraint = ParseTableConstraint();
      } else {
        MatchKeyword(Kw::kColumn);
        stmt->action = AlterAction::kAddColumn;
        stmt->column = ParseColumnDef();
      }
    } else if (MatchKeyword(Kw::kDrop)) {
      if (MatchKeyword(Kw::kConstraint)) {
        stmt->action = AlterAction::kDropConstraint;
        if (MatchKeyword(Kw::kIf)) {
          ExpectKeyword(Kw::kExists);
          stmt->if_exists = true;
        }
        stmt->target_name = ParseName();
      } else {
        MatchKeyword(Kw::kColumn);
        stmt->action = AlterAction::kDropColumn;
        if (MatchKeyword(Kw::kIf)) {
          ExpectKeyword(Kw::kExists);
          stmt->if_exists = true;
        }
        stmt->target_name = ParseName();
      }
    } else if (MatchKeyword(Kw::kAlter)) {
      MatchKeyword(Kw::kColumn);
      stmt->action = AlterAction::kAlterColumnType;
      stmt->column.name = ParseStrictName();
      MatchKeyword(Kw::kSet);  // tolerate SET DATA TYPE
      MatchKeyword(Kw::kType);
      if (Peek().Is(TokenKind::kIdentifier) && EqualsIgnoreCase(Peek().text, "data")) {
        Advance();
        MatchKeyword(Kw::kType);
      }
      stmt->column.type = ParseTypeName();
    } else if (MatchKeyword(Kw::kModify)) {
      MatchKeyword(Kw::kColumn);
      stmt->action = AlterAction::kAlterColumnType;
      stmt->column.name = ParseStrictName();
      stmt->column.type = ParseTypeName();
    } else if (MatchKeyword(Kw::kRename)) {
      if (MatchKeyword(Kw::kColumn)) {
        stmt->action = AlterAction::kRenameColumn;
        stmt->target_name = ParseStrictName();
        ExpectKeyword(Kw::kTo);
        stmt->new_name = ParseStrictName();
      } else {
        MatchKeyword(Kw::kTo);
        stmt->action = AlterAction::kRenameTable;
        stmt->new_name = ParseStrictName();
      }
    } else {
      ok_ = false;
    }
    SkipToStatementEnd();
    return stmt;
  }

  StatementPtr ParseDrop() {
    ExpectKeyword(Kw::kDrop);
    if (MatchKeyword(Kw::kTable)) {
      auto stmt = NewStmt<DropTableStatement>();
      if (MatchKeyword(Kw::kIf)) {
        ExpectKeyword(Kw::kExists);
        stmt->if_exists = true;
      }
      stmt->table = ParseStrictName();
      SkipToStatementEnd();
      return stmt;
    }
    if (MatchKeyword(Kw::kIndex)) {
      auto stmt = NewStmt<DropIndexStatement>();
      if (MatchKeyword(Kw::kIf)) {
        ExpectKeyword(Kw::kExists);
        stmt->if_exists = true;
      }
      stmt->index = ParseStrictName();
      SkipToStatementEnd();
      return stmt;
    }
    ok_ = false;
    return nullptr;
  }

  /// Tolerantly consumes any trailing clause we do not model (ENGINE=...,
  /// RETURNING, ON CONFLICT...). A lone semicolon/end stops us.
  void SkipToStatementEnd() {
    while (!Peek().Is(TokenKind::kEnd) && !Peek().Is(TokenKind::kSemicolon)) {
      Advance();
      skipped_ = true;
    }
  }

  // ---------------------------- expressions -------------------------------
  ExprPtr ParseExpr() { return ParseOr(); }

  ExprPtr ParseOr() {
    ExprPtr lhs = ParseAnd();
    while (MatchKeyword(Kw::kOr)) {
      lhs = NewBinary("OR", std::move(lhs), ParseAnd());
    }
    return lhs;
  }

  ExprPtr ParseAnd() {
    ExprPtr lhs = ParseNot();
    while (MatchKeyword(Kw::kAnd)) {
      lhs = NewBinary("AND", std::move(lhs), ParseNot());
    }
    return lhs;
  }

  ExprPtr ParseNot() {
    if (MatchKeyword(Kw::kNot)) {
      ExprPtr e = NewExpr(ExprKind::kUnary);
      e->text = "NOT";
      e->children.push_back(ParseNot());
      return e;
    }
    return ParseComparison();
  }

  ExprPtr ParseComparison() {
    ExprPtr lhs = ParseAdditive();
    while (true) {
      const Token& t = Peek();
      if (t.Is(TokenKind::kOperator) && IsComparisonOp(t.op)) {
        std::string_view op = Advance().text;
        lhs = NewBinary(op, std::move(lhs), ParseAdditive());
        continue;
      }
      bool negated = false;
      size_t save = pos_;
      if (Peek().IsKeyword(Kw::kNot)) {
        Advance();
        negated = true;
      }
      if (MatchKeyword(Kw::kLike) || MatchKeyword(Kw::kIlike) ||
          MatchKeyword(Kw::kRegexp) || MatchKeyword(Kw::kRlike)) {
        ExprPtr e = NewExpr(ExprKind::kLike);
        e->text = ToUpper(tokens_[pos_ - 1].text);
        e->negated = negated;
        e->children.push_back(std::move(lhs));
        e->children.push_back(ParseAdditive());
        if (MatchKeyword(Kw::kEscape)) {
          ParsePrimary();
          skipped_ = true;
        }
        lhs = std::move(e);
        continue;
      }
      if (MatchKeyword(Kw::kSimilar)) {
        ExpectKeyword(Kw::kTo);
        ExprPtr e = NewExpr(ExprKind::kLike);
        e->text = "SIMILAR TO";
        e->negated = negated;
        e->children.push_back(std::move(lhs));
        e->children.push_back(ParseAdditive());
        lhs = std::move(e);
        continue;
      }
      if (MatchKeyword(Kw::kIn)) {
        ExprPtr e = NewExpr(ExprKind::kIn);
        e->negated = negated;
        e->children.push_back(std::move(lhs));
        Expect(TokenKind::kLeftParen);
        if (Peek().IsKeyword(Kw::kSelect)) {
          e->subquery = ParseSelect();
        } else {
          do {
            e->children.push_back(ParseExpr());
          } while (Match(TokenKind::kComma));
        }
        Expect(TokenKind::kRightParen);
        lhs = std::move(e);
        continue;
      }
      if (MatchKeyword(Kw::kBetween)) {
        ExprPtr e = NewExpr(ExprKind::kBetween);
        e->negated = negated;
        e->children.push_back(std::move(lhs));
        e->children.push_back(ParseAdditive());
        ExpectKeyword(Kw::kAnd);
        e->children.push_back(ParseAdditive());
        lhs = std::move(e);
        continue;
      }
      if (negated) {
        pos_ = save;  // NOT belonged to something else.
        break;
      }
      if (MatchKeyword(Kw::kIs)) {
        bool is_not = MatchKeyword(Kw::kNot);
        if (MatchKeyword(Kw::kNull)) {
          ExprPtr e = NewExpr(ExprKind::kIsNull);
          e->negated = is_not;
          e->children.push_back(std::move(lhs));
          lhs = std::move(e);
          continue;
        }
        // IS TRUE / IS FALSE / IS DISTINCT FROM — treat as binary with "IS".
        lhs = NewBinary(is_not ? "IS NOT" : "IS", std::move(lhs), ParseAdditive());
        continue;
      }
      break;
    }
    return lhs;
  }

  ExprPtr ParseAdditive() {
    ExprPtr lhs = ParseMultiplicative();
    while (true) {
      if (MatchOperator(OpCode("||"))) {
        lhs = NewBinary("||", std::move(lhs), ParseMultiplicative());
      } else if (MatchOperator(OpCode("+"))) {
        lhs = NewBinary("+", std::move(lhs), ParseMultiplicative());
      } else if (MatchOperator(OpCode("-"))) {
        lhs = NewBinary("-", std::move(lhs), ParseMultiplicative());
      } else {
        break;
      }
    }
    return lhs;
  }

  ExprPtr ParseMultiplicative() {
    ExprPtr lhs = ParseUnary();
    while (true) {
      if (MatchOperator(OpCode("*"))) {
        lhs = NewBinary("*", std::move(lhs), ParseUnary());
      } else if (MatchOperator(OpCode("/"))) {
        lhs = NewBinary("/", std::move(lhs), ParseUnary());
      } else if (MatchOperator(OpCode("%"))) {
        lhs = NewBinary("%", std::move(lhs), ParseUnary());
      } else {
        break;
      }
    }
    return lhs;
  }

  ExprPtr ParseUnary() {
    if (MatchOperator(OpCode("-"))) {
      ExprPtr e = NewExpr(ExprKind::kUnary);
      e->text = "-";
      e->children.push_back(ParseUnary());
      return ParsePostfix(std::move(e));
    }
    if (MatchOperator(OpCode("+"))) return ParseUnary();
    return ParsePostfix(ParsePrimary());
  }

  ExprPtr ParsePostfix(ExprPtr base) {
    while (MatchOperator(OpCode("::"))) {
      ExprPtr e = NewExpr(ExprKind::kCast);
      e->text = ParseTypeName().ToString();
      e->children.push_back(std::move(base));
      base = std::move(e);
    }
    return base;
  }

  ExprPtr ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kNumber: {
        ExprPtr e = NewExpr(ExprKind::kNumberLiteral);
        e->text = Advance().text;
        return e;
      }
      case TokenKind::kString: {
        ExprPtr e = NewExpr(ExprKind::kStringLiteral);
        e->text = Advance().text;
        return e;
      }
      case TokenKind::kParam: {
        ExprPtr e = NewExpr(ExprKind::kParam);
        e->text = Advance().text;
        return e;
      }
      case TokenKind::kLeftParen: {
        Advance();
        ExprPtr e;
        if (Peek().IsKeyword(Kw::kSelect)) {
          e = NewExpr(ExprKind::kSubquery);
          e->subquery = ParseSelect();
        } else {
          e = ParseExpr();
        }
        Expect(TokenKind::kRightParen);
        return e;
      }
      default:
        break;
    }

    if (t.IsKeyword(Kw::kNull)) {
      Advance();
      return NewExpr(ExprKind::kNullLiteral);
    }
    if (t.IsKeyword(Kw::kTrue) || t.IsKeyword(Kw::kFalse)) {
      ExprPtr e = NewExpr(ExprKind::kBoolLiteral);
      e->text = ToLower(Advance().text);
      return e;
    }
    if (t.IsKeyword(Kw::kExists)) {
      Advance();
      Expect(TokenKind::kLeftParen);
      ExprPtr e = NewExpr(ExprKind::kExists);
      if (Peek().IsKeyword(Kw::kSelect)) {
        e->subquery = ParseSelect();
      } else {
        ok_ = false;
      }
      Expect(TokenKind::kRightParen);
      return e;
    }
    if (t.IsKeyword(Kw::kCase)) return ParseCase();
    if (t.IsKeyword(Kw::kCast)) {
      Advance();
      Expect(TokenKind::kLeftParen);
      ExprPtr e = NewExpr(ExprKind::kCast);
      e->children.push_back(ParseExpr());
      ExpectKeyword(Kw::kAs);
      e->text = ParseTypeName().ToString();
      Expect(TokenKind::kRightParen);
      return e;
    }
    if (t.IsOperator(OpCode("*"))) {
      Advance();
      return NewExpr(ExprKind::kStar);
    }

    if (t.Is(TokenKind::kIdentifier) || t.Is(TokenKind::kQuotedIdentifier) ||
        t.Is(TokenKind::kKeyword)) {
      // Function call?
      if (Peek(1).Is(TokenKind::kLeftParen) && !t.Is(TokenKind::kQuotedIdentifier)) {
        std::string_view name = Advance().text;
        Advance();  // '('
        ExprPtr e = NewExpr(ExprKind::kFunction);
        e->text = name;
        if (MatchKeyword(Kw::kDistinct)) e->distinct_arg = true;
        if (!Peek().Is(TokenKind::kRightParen)) {
          do {
            if (Peek().IsOperator(OpCode("*"))) {
              Advance();
              e->children.push_back(NewExpr(ExprKind::kStar));
            } else {
              e->children.push_back(ParseExpr());
            }
          } while (Match(TokenKind::kComma));
        }
        Expect(TokenKind::kRightParen);
        return e;
      }
      // Column reference: a / a.b / a.b.c / a.* — bare keywords allowed only
      // when they cannot start a clause (non-validating leniency).
      if (t.Is(TokenKind::kKeyword) && !IsSafeKeywordAsName(t.keyword)) {
        ok_ = false;
        Advance();
        return NewExpr(ExprKind::kRaw);
      }
      ExprPtr e = NewExpr(ExprKind::kColumnRef);
      e->name_parts.emplace_back(Advance().text);
      while (Match(TokenKind::kDot)) {
        if (Peek().IsOperator(OpCode("*"))) {
          Advance();
          e->kind = ExprKind::kStar;
          return e;
        }
        e->name_parts.emplace_back(ParseName());
      }
      return e;
    }

    ok_ = false;
    Advance();
    return NewExpr(ExprKind::kRaw);
  }

  static bool IsComparisonOp(uint8_t op) {
    switch (op) {
      case OpCode("="):
      case OpCode("=="):
      case OpCode("!="):
      case OpCode("<>"):
      case OpCode("<"):
      case OpCode(">"):
      case OpCode("<="):
      case OpCode(">="):
      case OpCode("~*"):
      case OpCode("!~"):
      case OpCode("!~*"):
      case OpCode("~"):
        return true;
      default:
        return false;
    }
  }

  /// Keywords commonly used as bare column names in real schemas.
  static bool IsSafeKeywordAsName(KeywordId kw) {
    switch (kw) {
      case Kw::kKey:
      case Kw::kType:
      case Kw::kColumn:
      case Kw::kIndex:
      case Kw::kView:
      case Kw::kIf:
      case Kw::kReplace:
      case Kw::kIgnore:
      case Kw::kEnum:
      case Kw::kCheck:
      case Kw::kDefault:
      case Kw::kUnique:
      case Kw::kLimit:
      case Kw::kOffset:
      case Kw::kValues:
      case Kw::kBegin:
      case Kw::kEnd:
      case Kw::kDesc:
      case Kw::kAsc:
      case Kw::kTo:
        return true;
      default:
        return false;
    }
  }

  ExprPtr ParseCase() {
    ExpectKeyword(Kw::kCase);
    ExprPtr e = NewExpr(ExprKind::kCase);
    if (!Peek().IsKeyword(Kw::kWhen)) {
      e->children.push_back(ParseExpr());  // CASE <operand> WHEN ...
      e->text = "operand";
    }
    while (MatchKeyword(Kw::kWhen)) {
      e->children.push_back(ParseExpr());
      ExpectKeyword(Kw::kThen);
      e->children.push_back(ParseExpr());
    }
    if (MatchKeyword(Kw::kElse)) {
      e->children.push_back(ParseExpr());
      e->negated = true;  // repurposed: marks the presence of an ELSE arm.
    }
    ExpectKeyword(Kw::kEnd);
    return e;
  }

  const std::vector<Token>& tokens_;
  Arena* arena_;
  std::pmr::memory_resource* mr_;
  size_t pos_ = 0;
  bool ok_ = true;
  bool skipped_ = false;  ///< Source consumed but not kept (Statement::skipped_source).
};

StatementPtr ParseWithBuffer(std::string_view sql, Arena* arena, TokenBuffer& buffer) {
  const std::vector<Token>& tokens = Lex(sql, buffer);
  Parser parser(tokens, arena);
  return parser.Parse(sql);
}

}  // namespace

StatementPtr ParseStatement(std::string_view sql) {
  TokenBuffer buffer;
  return ParseWithBuffer(sql, nullptr, buffer);
}

StatementPtr ParseStatement(std::string_view sql, Arena* arena, TokenBuffer* buffer) {
  if (buffer != nullptr) return ParseWithBuffer(sql, arena, *buffer);
  TokenBuffer local;
  return ParseWithBuffer(sql, arena, local);
}

std::vector<StatementPtr> ParseScript(std::string_view script) {
  return ParseScript(script, nullptr, nullptr);
}

std::vector<StatementPtr> ParseScript(std::string_view script, Arena* arena,
                                      TokenBuffer* buffer) {
  TokenBuffer local;
  TokenBuffer& buf = buffer != nullptr ? *buffer : local;
  std::vector<StatementPtr> out;
  for (std::string_view piece : SplitStatements(script, nullptr, &buf)) {
    if (Trim(piece).empty()) continue;
    out.push_back(ParseWithBuffer(piece, arena, buf));
  }
  return out;
}

}  // namespace sqlcheck::sql
