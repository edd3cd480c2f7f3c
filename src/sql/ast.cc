#include "sql/ast.h"

#include "common/strings.h"

namespace sqlcheck::sql {

std::vector<std::string> ToStringVector(const AstVector<AstString>& v) {
  std::vector<std::string> out;
  out.reserve(v.size());
  for (const auto& s : v) out.emplace_back(s);
  return out;
}

// ----------------------------- AstDelete -----------------------------------

void AstDelete::operator()(Expr* e) const {
  // Arena-tier nodes are reclaimed wholesale by their arena; running their
  // destructor would be wasted work (every member is arena-backed).
  if (e != nullptr && !e->arena_managed) delete e;
}

void AstDelete::operator()(Statement* s) const {
  if (s != nullptr && !s->arena_managed) delete s;
}

// --------------------------------- Expr -----------------------------------

ExprPtr Expr::Clone() const {
  ExprPtr out(new Expr());
  out->kind = kind;
  out->text = text;
  out->name_parts.reserve(name_parts.size());
  for (const auto& p : name_parts) out->name_parts.emplace_back(p);
  out->negated = negated;
  out->distinct_arg = distinct_arg;
  out->children.reserve(children.size());
  for (const auto& c : children) out->children.push_back(c->Clone());
  if (subquery) out->subquery = subquery->CloneSelect();
  return out;
}

std::string_view Expr::ColumnName() const {
  if (kind != ExprKind::kColumnRef || name_parts.empty()) return {};
  return name_parts.back();
}

std::string_view Expr::TableQualifier() const {
  if (kind != ExprKind::kColumnRef || name_parts.size() < 2) return {};
  return name_parts[name_parts.size() - 2];
}

ExprPtr MakeColumnRef(std::vector<std::string> name_parts) {
  ExprPtr e(new Expr());
  e->kind = ExprKind::kColumnRef;
  e->name_parts.reserve(name_parts.size());
  for (auto& p : name_parts) e->name_parts.emplace_back(p);
  return e;
}

ExprPtr MakeBinary(std::string op, ExprPtr lhs, ExprPtr rhs) {
  ExprPtr e(new Expr());
  e->kind = ExprKind::kBinary;
  e->text = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

void VisitExpr(const Expr& expr, const std::function<void(const Expr&)>& fn) {
  fn(expr);
  for (const auto& c : expr.children) VisitExpr(*c, fn);
}

// ------------------------------ Statements --------------------------------

const char* StatementKindName(StatementKind kind) {
  switch (kind) {
    case StatementKind::kSelect: return "SELECT";
    case StatementKind::kInsert: return "INSERT";
    case StatementKind::kUpdate: return "UPDATE";
    case StatementKind::kDelete: return "DELETE";
    case StatementKind::kCreateTable: return "CREATE TABLE";
    case StatementKind::kCreateIndex: return "CREATE INDEX";
    case StatementKind::kAlterTable: return "ALTER TABLE";
    case StatementKind::kDropTable: return "DROP TABLE";
    case StatementKind::kDropIndex: return "DROP INDEX";
    case StatementKind::kUnknown: return "UNKNOWN";
  }
  return "UNKNOWN";
}

TableRef TableRef::Clone() const {
  TableRef out;
  out.name = name;
  out.alias = alias;
  if (subquery) out.subquery = subquery->CloneSelect();
  return out;
}

JoinClause JoinClause::Clone() const {
  JoinClause out;
  out.type = type;
  out.table = table.Clone();
  if (on) out.on = on->Clone();
  out.using_columns.reserve(using_columns.size());
  for (const auto& c : using_columns) out.using_columns.emplace_back(c);
  return out;
}

SelectItem SelectItem::Clone() const {
  SelectItem out;
  if (expr) out.expr = expr->Clone();
  out.alias = alias;
  return out;
}

OrderItem OrderItem::Clone() const {
  OrderItem out;
  if (expr) out.expr = expr->Clone();
  out.descending = descending;
  return out;
}

SelectPtr SelectStatement::CloneSelect() const {
  SelectPtr out(new SelectStatement());
  out->raw_sql = raw_sql;
  out->distinct = distinct;
  out->items.reserve(items.size());
  for (const auto& i : items) out->items.push_back(i.Clone());
  out->from.reserve(from.size());
  for (const auto& f : from) out->from.push_back(f.Clone());
  out->joins.reserve(joins.size());
  for (const auto& j : joins) out->joins.push_back(j.Clone());
  if (where) out->where = where->Clone();
  out->group_by.reserve(group_by.size());
  for (const auto& g : group_by) out->group_by.push_back(g->Clone());
  if (having) out->having = having->Clone();
  out->order_by.reserve(order_by.size());
  for (const auto& o : order_by) out->order_by.push_back(o.Clone());
  out->limit = limit;
  out->offset = offset;
  return out;
}

StatementPtr SelectStatement::CloneStatement() const { return CloneSelect(); }

void SelectStatement::CollectReferencedTables(std::vector<std::string_view>* out) const {
  for (const auto& f : from) {
    if (!f.name.empty()) out->push_back(f.name);
    if (f.subquery) f.subquery->CollectReferencedTables(out);
  }
  for (const auto& j : joins) {
    if (!j.table.name.empty()) out->push_back(j.table.name);
    if (j.table.subquery) j.table.subquery->CollectReferencedTables(out);
  }
}

int SelectStatement::JoinCount() const {
  int implicit = from.size() > 1 ? static_cast<int>(from.size()) - 1 : 0;
  return implicit + static_cast<int>(joins.size());
}

StatementPtr InsertStatement::CloneStatement() const {
  auto* out = new InsertStatement();
  out->raw_sql = raw_sql;
  out->table = table;
  out->columns.reserve(columns.size());
  for (const auto& c : columns) out->columns.emplace_back(c);
  out->rows.reserve(rows.size());
  for (const auto& row : rows) {
    AstVector<ExprPtr> r;
    r.reserve(row.size());
    for (const auto& e : row) r.push_back(e->Clone());
    out->rows.push_back(std::move(r));
  }
  if (select) out->select = select->CloneSelect();
  out->or_replace = or_replace;
  return StatementPtr(out);
}

StatementPtr UpdateStatement::CloneStatement() const {
  auto* out = new UpdateStatement();
  out->raw_sql = raw_sql;
  out->table = table;
  out->alias = alias;
  out->assignments.reserve(assignments.size());
  for (const auto& [col, e] : assignments) {
    out->assignments.emplace_back(std::piecewise_construct, std::forward_as_tuple(col),
                                  std::forward_as_tuple(e->Clone()));
  }
  if (where) out->where = where->Clone();
  return StatementPtr(out);
}

StatementPtr DeleteStatement::CloneStatement() const {
  auto* out = new DeleteStatement();
  out->raw_sql = raw_sql;
  out->table = table;
  if (where) out->where = where->Clone();
  return StatementPtr(out);
}

std::string TypeName::ToString() const {
  std::string out(name);
  if (!enum_values.empty()) {
    out += "(";
    for (size_t i = 0; i < enum_values.size(); ++i) {
      if (i > 0) out += ", ";
      out += "'";
      out += enum_values[i];
      out += "'";
    }
    out += ")";
  } else if (!params.empty()) {
    out += "(";
    for (size_t i = 0; i < params.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(params[i]);
    }
    out += ")";
  }
  if (with_time_zone) out += " WITH TIME ZONE";
  return out;
}

ColumnDefAst ColumnDefAst::Clone() const {
  ColumnDefAst out;
  out.name = name;
  out.type = type;
  out.not_null = not_null;
  out.primary_key = primary_key;
  out.unique = unique;
  out.auto_increment = auto_increment;
  if (default_value) out.default_value = default_value->Clone();
  if (check) out.check = check->Clone();
  if (references.has_value()) {
    ForeignKeyRefAst ref;
    ref.table = references->table;
    ref.columns.reserve(references->columns.size());
    for (const auto& c : references->columns) ref.columns.emplace_back(c);
    ref.on_delete_cascade = references->on_delete_cascade;
    out.references = std::move(ref);
  }
  return out;
}

TableConstraintAst TableConstraintAst::Clone() const {
  TableConstraintAst out;
  out.kind = kind;
  out.name = name;
  out.columns.reserve(columns.size());
  for (const auto& c : columns) out.columns.emplace_back(c);
  out.reference.table = reference.table;
  out.reference.columns.reserve(reference.columns.size());
  for (const auto& c : reference.columns) out.reference.columns.emplace_back(c);
  out.reference.on_delete_cascade = reference.on_delete_cascade;
  if (check) out.check = check->Clone();
  return out;
}

StatementPtr CreateTableStatement::CloneStatement() const {
  auto* out = new CreateTableStatement();
  out->raw_sql = raw_sql;
  out->table = table;
  out->if_not_exists = if_not_exists;
  out->columns.reserve(columns.size());
  for (const auto& c : columns) out->columns.push_back(c.Clone());
  out->constraints.reserve(constraints.size());
  for (const auto& c : constraints) out->constraints.push_back(c.Clone());
  return StatementPtr(out);
}

const ColumnDefAst* CreateTableStatement::FindColumn(std::string_view name) const {
  for (const auto& c : columns) {
    if (EqualsIgnoreCase(c.name, name)) return &c;
  }
  return nullptr;
}

bool CreateTableStatement::HasPrimaryKey() const {
  for (const auto& c : columns) {
    if (c.primary_key) return true;
  }
  for (const auto& c : constraints) {
    if (c.kind == TableConstraintKind::kPrimaryKey) return true;
  }
  return false;
}

bool CreateTableStatement::HasForeignKey() const {
  for (const auto& c : columns) {
    if (c.references.has_value()) return true;
  }
  for (const auto& c : constraints) {
    if (c.kind == TableConstraintKind::kForeignKey) return true;
  }
  return false;
}

StatementPtr CreateIndexStatement::CloneStatement() const {
  auto* out = new CreateIndexStatement();
  out->raw_sql = raw_sql;
  out->index = index;
  out->table = table;
  out->columns.reserve(columns.size());
  for (const auto& c : columns) out->columns.emplace_back(c);
  out->unique = unique;
  out->if_not_exists = if_not_exists;
  return StatementPtr(out);
}

StatementPtr AlterTableStatement::CloneStatement() const {
  auto* out = new AlterTableStatement();
  out->raw_sql = raw_sql;
  out->table = table;
  out->action = action;
  out->column = column.Clone();
  out->target_name = target_name;
  out->new_name = new_name;
  out->constraint = constraint.Clone();
  out->if_exists = if_exists;
  return StatementPtr(out);
}

StatementPtr DropTableStatement::CloneStatement() const {
  auto* out = new DropTableStatement();
  out->raw_sql = raw_sql;
  out->table = table;
  out->if_exists = if_exists;
  return StatementPtr(out);
}

StatementPtr DropIndexStatement::CloneStatement() const {
  auto* out = new DropIndexStatement();
  out->raw_sql = raw_sql;
  out->index = index;
  out->if_exists = if_exists;
  return StatementPtr(out);
}

void UnknownStatement::AdoptTokens(const std::vector<Token>& source_tokens,
                                   std::string_view lex_source) {
  // raw_sql is the trimmed substring of lex_source; almost every
  // non-normalized token text is a subview of lex_source within the trimmed
  // range and rebases to a view of raw_sql. The exceptions — escape-stripped
  // payloads, and the pathological unterminated-quote case whose body runs
  // into the whitespace Trim removed — get owned copies instead, so the
  // stored bytes always equal the lexed bytes.
  const char* base = lex_source.data();
  const size_t trim_offset =
      raw_sql.empty() ? 0 : static_cast<size_t>(Trim(lex_source).data() - base);
  std::string_view raw_view(raw_sql);

  auto rebases_to_view = [&](const Token& t) {
    if (t.normalized) return false;
    if (t.text.empty()) return true;
    size_t pos = static_cast<size_t>(t.text.data() - base);
    return pos >= trim_offset && pos - trim_offset + t.text.size() <= raw_view.size();
  };

  size_t owned_count = 0;
  for (const Token& t : source_tokens) owned_count += rebases_to_view(t) ? 0 : 1;
  // Exact reserve: views into owned_texts stay valid because the vector
  // never regrows after this.
  owned_texts.clear();
  owned_texts.reserve(owned_count);

  tokens.clear();
  tokens.reserve(source_tokens.size());
  for (const Token& t : source_tokens) {
    Token copy = t;
    if (!rebases_to_view(t)) {
      owned_texts.emplace_back(t.text);
      copy.text = owned_texts.back();
      copy.normalized = true;  // marks "text lives in owned_texts" for Clone
    } else if (!t.text.empty()) {
      size_t pos = static_cast<size_t>(t.text.data() - base);
      copy.text = raw_view.substr(pos - trim_offset, t.text.size());
    } else {
      copy.text = {};
    }
    tokens.push_back(copy);
  }
}

StatementPtr UnknownStatement::CloneStatement() const {
  auto* out = new UnknownStatement();
  out->raw_sql = raw_sql;
  // Rebase the token views onto the clone's own raw_sql / owned_texts;
  // normalized payloads appear in token order, so a single index walks them.
  out->owned_texts.reserve(owned_texts.size());
  for (const auto& s : owned_texts) out->owned_texts.emplace_back(s);
  out->tokens.reserve(tokens.size());
  std::string_view from_raw(raw_sql);
  std::string_view to_raw(out->raw_sql);
  size_t owned_index = 0;
  for (const Token& t : tokens) {
    Token copy = t;
    if (t.normalized) {
      copy.text = out->owned_texts[owned_index++];
    } else if (!t.text.empty()) {
      size_t pos = static_cast<size_t>(t.text.data() - from_raw.data());
      copy.text = to_raw.substr(pos, t.text.size());
    } else {
      copy.text = {};
    }
    out->tokens.push_back(copy);
  }
  return StatementPtr(out);
}

}  // namespace sqlcheck::sql
