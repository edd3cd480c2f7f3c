#include <cctype>
#include <cmath>
#include <map>

#include "common/strings.h"
#include "rules/rule.h"

namespace sqlcheck {

namespace {

/// True for column names that usually hold prose, where delimiters are
/// ordinary punctuation rather than value separators (§4.1 "Limitation").
bool IsProseColumnName(std::string_view name) {
  static constexpr std::string_view kProse[] = {
      "address", "description", "comment", "comments", "notes", "note",
      "message", "body",        "text",    "bio",      "summary",
  };
  for (std::string_view p : kProse) {
    if (EqualsIgnoreCase(name, p)) return true;
  }
  return false;
}

/// Column names that *sound* like packed value lists.
bool SoundsLikeValueList(std::string_view name) {
  return name.size() > 3 &&
         (EndsWithIgnoreCase(name, "_ids") || EndsWithIgnoreCase(name, "ids") ||
          EndsWithIgnoreCase(name, "_list") || EndsWithIgnoreCase(name, "_tags") ||
          EqualsIgnoreCase(name, "tags"));
}

const sql::CreateTableStatement* AsCreateTable(const QueryFacts& facts) {
  if (facts.stmt == nullptr) return nullptr;
  return facts.stmt->As<sql::CreateTableStatement>();
}

Detection MakeDetection(AntiPattern type, DetectionSource source, const QueryFacts& facts,
                        std::string_view table, std::string_view column, std::string message) {
  Detection d;
  d.type = type;
  d.source = source;
  d.table = table;
  d.column = column;
  d.query = facts.raw_sql;
  d.stmt = facts.stmt;
  d.message = std::move(message);
  return d;
}

Detection DataDetection(AntiPattern type, std::string table, std::string column,
                        std::string message) {
  Detection d;
  d.type = type;
  d.source = DetectionSource::kDataAnalysis;
  d.table = std::move(table);
  d.column = std::move(column);
  d.message = std::move(message);
  return d;
}

// ------------------------------ Logical design ------------------------------

// Multi-Valued Attribute.
void MultiValuedAttributeQuery(const QueryFacts& facts, const Context& context,
                               const DetectorConfig& config,
                               std::vector<Detection>* out) {
  if (!config.intra_query) return;
  // Intra-query signal: LIKE/REGEXP over an id-list-looking column,
  // word-boundary/computed patterns (the string-processing tricks of §2.1),
  // or delimiter-carrying patterns ('%,42,%'). The delimiter variant is the
  // paper's noisy regex — it is exactly what the inter-query context prunes.
  for (const auto& p : facts.patterns) {
    bool id_list_column = SoundsLikeValueList(p.column);
    bool trick_pattern = p.word_boundary || (p.computed_pattern && !p.column.empty());
    bool delimiter_pattern =
        !p.pattern.empty() && (p.pattern.find(',') != std::string::npos ||
                               p.pattern.find(';') != std::string::npos);
    if (!id_list_column && !trick_pattern && !delimiter_pattern) continue;

    // Inter-query refinement (fewer false positives): prose columns and
    // columns whose data is not delimiter-separated are suppressed.
    if (config.inter_query) {
      if (IsProseColumnName(p.column)) continue;
      if (config.data_analysis && context.has_data() && !p.table.empty()) {
        const TableProfile* profile = context.ProfileFor(p.table);
        if (profile != nullptr) {
          const ColumnStats* stats = profile->stats.FindColumn(p.column);
          if (stats != nullptr && stats->row_count >= config.min_rows_for_data_rules &&
              stats->delimited_fraction < config.delimited_fraction) {
            continue;  // data says this is not a packed list
          }
        }
      }
    }
    Detection d;
    d.type = AntiPattern::kMultiValuedAttribute;
    d.source = config.inter_query ? DetectionSource::kInterQuery
                                  : DetectionSource::kIntraQuery;
    d.table = p.table;
    d.column = p.column;
    d.query = facts.raw_sql;
    d.stmt = facts.stmt;
    d.message = "column '" + std::string(p.column) +
                "' is queried with pattern matching, suggesting a delimiter-separated "
                "value list (violates 1NF); use an intersection table instead";
    out->push_back(std::move(d));
    return;  // one detection per query is enough
  }

  // DDL signal: a textual column whose name advertises a packed list.
  const auto* create = AsCreateTable(facts);
  if (create != nullptr) {
    for (const auto& col : create->columns) {
      DataType t = DataType::FromTypeName(col.type);
      if (t.IsTextual() && SoundsLikeValueList(col.name)) {
        Detection d;
        d.type = AntiPattern::kMultiValuedAttribute;
        d.source = DetectionSource::kIntraQuery;
        d.table = create->table;
        d.column = col.name;
        d.query = facts.raw_sql;
        d.stmt = facts.stmt;
        d.message = "textual column '" + col.name +
                    "' looks like a delimiter-separated id list; model the relationship "
                    "with an intersection table";
        out->push_back(std::move(d));
      }
    }
  }
}

void MultiValuedAttributeData(const TableProfile& profile, const Context&,
                              const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.data_analysis) return;
  if (profile.stats.row_count < config.min_rows_for_data_rules) return;
  for (const auto& stats : profile.stats.columns) {
    if (stats.delimited_fraction < config.delimited_fraction) continue;
    if (IsProseColumnName(stats.column)) continue;
    Detection d;
    d.type = AntiPattern::kMultiValuedAttribute;
    d.source = DetectionSource::kDataAnalysis;
    d.table = profile.table;
    d.column = stats.column;
    d.message = "sampled values of '" + stats.column + "' are '" +
                std::string(1, stats.dominant_delimiter == '\0' ? ','
                                                                : stats.dominant_delimiter) +
                "'-separated lists in " +
                std::to_string(static_cast<int>(stats.delimited_fraction * 100)) +
                "% of rows (multi-valued attribute)";
    out->push_back(std::move(d));
  }
}

// No Primary Key.
void NoPrimaryKeyQuery(const QueryFacts& facts, const Context&,
                       const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.intra_query) return;
  const auto* create = AsCreateTable(facts);
  if (create == nullptr || create->HasPrimaryKey()) return;
  Detection d;
  d.type = AntiPattern::kNoPrimaryKey;
  d.source = DetectionSource::kIntraQuery;
  d.table = create->table;
  d.query = facts.raw_sql;
  d.stmt = facts.stmt;
  d.message = "table '" + create->table +
              "' has no PRIMARY KEY; rows cannot be uniquely identified and duplicates "
              "are silently allowed";
  out->push_back(std::move(d));
}

void NoPrimaryKeyData(const TableProfile& profile, const Context& context,
                      const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.data_analysis) return;
  const TableSchema* schema = context.catalog().FindTable(profile.table);
  if (schema == nullptr || schema->HasPrimaryKey()) return;
  Detection d;
  d.type = AntiPattern::kNoPrimaryKey;
  d.source = DetectionSource::kDataAnalysis;
  d.table = profile.table;
  d.message = "table '" + profile.table + "' stores " +
              std::to_string(profile.stats.row_count) + " rows without a PRIMARY KEY";
  out->push_back(std::move(d));
}

// No Foreign Key.
void NoForeignKeyQuery(const QueryFacts& facts, const Context& context,
                       const DetectorConfig& config, std::vector<Detection>* out) {
  // Inherently inter-query (Example 3): needs both DDL statements plus the
  // JOIN that connects them.
  if (!config.inter_query) return;
  for (const auto& j : facts.joins) {
    if (j.expression_join || j.left_table.empty() || j.right_table.empty()) continue;
    if (EqualsIgnoreCase(j.left_table, j.right_table)) continue;
    const TableSchema* left = context.catalog().FindTable(j.left_table);
    const TableSchema* right = context.catalog().FindTable(j.right_table);
    if (left == nullptr || right == nullptr) continue;  // need both DDLs
    if (context.ForeignKeyExists(j.left_table, j.right_table)) continue;
    Detection d;
    d.type = AntiPattern::kNoForeignKey;
    d.source = DetectionSource::kInterQuery;
    d.table = j.right_table;
    d.column = j.right_column;
    d.query = facts.raw_sql;
    d.stmt = facts.stmt;
    d.message = "tables '" + std::string(j.left_table) + "' and '" +
                std::string(j.right_table) + "' are joined on " +
                std::string(j.left_column) +
                " but no FOREIGN KEY links them; referential integrity is unenforced";
    out->push_back(std::move(d));
    return;
  }
}

void NoForeignKeyData(const TableProfile& profile, const Context& context,
                      const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.data_analysis) return;
  const TableSchema* schema = context.catalog().FindTable(profile.table);
  if (schema == nullptr || !schema->foreign_keys.empty()) return;
  // Column named <other_table>_id (or matching another table's PK) with no
  // FK recorded anywhere.
  for (const auto& col : schema->columns) {
    if (!EndsWithIgnoreCase(col.name, "_id") || EqualsIgnoreCase(col.name, "_id")) {
      continue;
    }
    std::string_view target = std::string_view(col.name).substr(0, col.name.size() - 3);
    const TableSchema* parent = context.catalog().FindTable(target);
    if (parent == nullptr) {
      parent = context.catalog().FindTable(std::string(target) + "s");
    }
    if (parent == nullptr || EqualsIgnoreCase(parent->name, profile.table)) continue;
    Detection d;
    d.type = AntiPattern::kNoForeignKey;
    d.source = DetectionSource::kDataAnalysis;
    d.table = profile.table;
    d.column = col.name;
    d.message = "column '" + col.name + "' appears to reference table '" + parent->name +
                "' but carries no FOREIGN KEY constraint";
    out->push_back(std::move(d));
    return;
  }
}

// Generic Primary Key.
void EmitGenericPrimaryKey(std::string_view table, const QueryFacts& facts,
                           std::vector<Detection>* out) {
  Detection d;
  d.type = AntiPattern::kGenericPrimaryKey;
  d.source = DetectionSource::kIntraQuery;
  d.table = table;
  d.column = "id";
  d.query = facts.raw_sql;
  d.stmt = facts.stmt;
  d.message = "table '" + std::string(table) + "' defines a generic primary key column 'id'";
  out->push_back(std::move(d));
}

void GenericPrimaryKeyQuery(const QueryFacts& facts, const Context&,
                            const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.intra_query) return;
  const auto* create = AsCreateTable(facts);
  if (create == nullptr) return;
  for (const auto& col : create->columns) {
    if (col.primary_key && EqualsIgnoreCase(col.name, "id")) {
      EmitGenericPrimaryKey(create->table, facts, out);
      return;
    }
  }
  for (const auto& con : create->constraints) {
    if (con.kind == sql::TableConstraintKind::kPrimaryKey && con.columns.size() == 1 &&
        EqualsIgnoreCase(con.columns[0], "id")) {
      EmitGenericPrimaryKey(create->table, facts, out);
      return;
    }
  }
}

void GenericPrimaryKeyData(const TableProfile& profile, const Context& context,
                           const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.data_analysis) return;
  const TableSchema* schema = context.catalog().FindTable(profile.table);
  if (schema == nullptr) return;
  if (schema->primary_key.size() == 1 && EqualsIgnoreCase(schema->primary_key[0], "id")) {
    Detection d;
    d.type = AntiPattern::kGenericPrimaryKey;
    d.source = DetectionSource::kDataAnalysis;
    d.table = profile.table;
    d.column = "id";
    d.message = "table '" + profile.table +
                "' uses a generic 'id' primary key; a descriptive key (e.g. " +
                ToLower(profile.table) + "_id) improves join readability";
    out->push_back(std::move(d));
  }
}

// Data in Metadata.
int CountNumberedSeries(const sql::CreateTableStatement* create) {
  int count = 0;
  for (const auto& col : create->columns) {
    std::string_view name = col.name;
    size_t digits = 0;
    while (digits < name.size() &&
           std::isdigit(static_cast<unsigned char>(name[name.size() - 1 - digits]))) {
      ++digits;
    }
    if (digits > 0 && digits < name.size()) ++count;
  }
  return count;
}

void DataInMetadataQuery(const QueryFacts& facts, const Context&,
                         const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.intra_query) return;
  const auto* create = AsCreateTable(facts);
  if (create == nullptr) return;
  // Numbered column series (tag1, tag2, tag3) hard-code a domain dimension
  // into the schema.
  int series = CountNumberedSeries(create);
  if (series >= 3) {
    Detection d;
    d.type = AntiPattern::kDataInMetadata;
    d.source = DetectionSource::kIntraQuery;
    d.table = create->table;
    d.query = facts.raw_sql;
    d.stmt = facts.stmt;
    d.message = "table '" + std::string(create->table) + "' defines " + std::to_string(series) +
                " numbered sibling columns; the series index is data hiding in "
                "metadata — move it into rows of a child table";
    out->push_back(std::move(d));
  }
}

void DataInMetadataData(const TableProfile& profile, const Context& context,
                        const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.data_analysis) return;
  const TableSchema* schema = context.catalog().FindTable(profile.table);
  if (schema == nullptr) return;
  int series = 0;
  for (const auto& col : schema->columns) {
    std::string_view name = col.name;
    size_t digits = 0;
    while (digits < name.size() &&
           std::isdigit(static_cast<unsigned char>(name[name.size() - 1 - digits]))) {
      ++digits;
    }
    if (digits > 0 && digits < name.size()) ++series;
  }
  if (series >= 3) {
    Detection d;
    d.type = AntiPattern::kDataInMetadata;
    d.source = DetectionSource::kDataAnalysis;
    d.table = profile.table;
    d.message = "table '" + profile.table +
                "' has a numbered column series; application logic is hard-coded in "
                "the table's metadata";
    out->push_back(std::move(d));
  }
}

// Adjacency List.
void AdjacencyListQuery(const QueryFacts& facts, const Context&,
                        const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.intra_query) return;
  const auto* create = AsCreateTable(facts);
  if (create == nullptr) return;
  auto emit = [&](std::string_view column) {
    Detection d;
    d.type = AntiPattern::kAdjacencyList;
    d.source = DetectionSource::kIntraQuery;
    d.table = create->table;
    d.column = column;
    d.query = facts.raw_sql;
    d.stmt = facts.stmt;
    d.message = "table '" + std::string(create->table) + "' references itself via '" +
                std::string(column) +
                "' (adjacency list); hierarchical queries will need recursive "
                "traversal — consider a path enumeration or closure table";
    out->push_back(std::move(d));
  };
  for (const auto& col : create->columns) {
    if (col.references.has_value() &&
        EqualsIgnoreCase(col.references->table, create->table)) {
      emit(col.name);
      return;
    }
  }
  for (const auto& con : create->constraints) {
    if (con.kind == sql::TableConstraintKind::kForeignKey &&
        EqualsIgnoreCase(con.reference.table, create->table)) {
      emit(con.columns.empty() ? "" : con.columns[0]);
      return;
    }
  }
}

// God Table.
void GodTableQuery(const QueryFacts& facts, const Context&, const DetectorConfig& config,
                   std::vector<Detection>* out) {
  if (!config.intra_query) return;
  const auto* create = AsCreateTable(facts);
  if (create == nullptr) return;
  if (static_cast<int>(create->columns.size()) < config.god_table_columns) return;
  Detection d;
  d.type = AntiPattern::kGodTable;
  d.source = DetectionSource::kIntraQuery;
  d.table = create->table;
  d.query = facts.raw_sql;
  d.stmt = facts.stmt;
  d.message = "table '" + std::string(create->table) + "' defines " +
              std::to_string(create->columns.size()) +
              " columns (threshold " + std::to_string(config.god_table_columns) +
              "); it likely conflates several entities";
  out->push_back(std::move(d));
}

void GodTableData(const TableProfile& profile, const Context& context,
                  const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.data_analysis) return;
  const TableSchema* schema = context.catalog().FindTable(profile.table);
  if (schema == nullptr) return;
  if (static_cast<int>(schema->columns.size()) < config.god_table_columns) return;
  Detection d;
  d.type = AntiPattern::kGodTable;
  d.source = DetectionSource::kDataAnalysis;
  d.table = profile.table;
  d.message = "table '" + profile.table + "' carries " +
              std::to_string(schema->columns.size()) + " columns";
  out->push_back(std::move(d));
}

// ------------------------------ Physical design -----------------------------

// Rounding Errors.
void RoundingErrorsQuery(const QueryFacts& facts, const Context&,
                         const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.intra_query) return;
  const auto* create = AsCreateTable(facts);
  if (create == nullptr) return;
  for (const auto& col : create->columns) {
    DataType t = DataType::FromTypeName(col.type);
    if (!t.IsFiniteBinaryFloat()) continue;
    Detection d;
    d.type = AntiPattern::kRoundingErrors;
    d.source = DetectionSource::kIntraQuery;
    d.table = create->table;
    d.column = col.name;
    d.query = facts.raw_sql;
    d.stmt = facts.stmt;
    d.message = "column '" + std::string(col.name) + "' stores fractional data as " + t.ToSql() +
                "; binary floating point drifts under aggregation — use NUMERIC/DECIMAL";
    out->push_back(std::move(d));
  }
}

void RoundingErrorsData(const TableProfile& profile, const Context& context,
                        const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.data_analysis) return;
  const TableSchema* schema = context.catalog().FindTable(profile.table);
  if (schema == nullptr) return;
  for (const auto& col : schema->columns) {
    if (!col.type.IsFiniteBinaryFloat()) continue;
    const ColumnStats* stats = profile.stats.FindColumn(col.name);
    if (stats == nullptr || stats->row_count < config.min_rows_for_data_rules) continue;
    Detection d;
    d.type = AntiPattern::kRoundingErrors;
    d.source = DetectionSource::kDataAnalysis;
    d.table = profile.table;
    d.column = col.name;
    d.message = "column '" + col.name + "' holds fractional values in a " +
                col.type.ToSql() + " column; sums/equality comparisons will drift";
    out->push_back(std::move(d));
  }
}

// Enumerated Types.
bool IsInListCheck(const sql::Expr& check) {
  bool found = false;
  sql::VisitExpr(check, [&](const sql::Expr& e) {
    if (e.kind == sql::ExprKind::kIn && !e.children.empty() &&
        e.children[0]->kind == sql::ExprKind::kColumnRef) {
      // All list members must be literals for this to be a domain restriction.
      bool all_literals = e.children.size() > 1;
      for (size_t i = 1; i < e.children.size(); ++i) {
        if (e.children[i]->kind != sql::ExprKind::kStringLiteral &&
            e.children[i]->kind != sql::ExprKind::kNumberLiteral) {
          all_literals = false;
        }
      }
      if (all_literals) found = true;
    }
  });
  return found;
}

std::string CheckedColumn(const sql::Expr& check) {
  std::string column;
  sql::VisitExpr(check, [&](const sql::Expr& e) {
    if (column.empty() && e.kind == sql::ExprKind::kIn && !e.children.empty() &&
        e.children[0]->kind == sql::ExprKind::kColumnRef) {
      column = e.children[0]->ColumnName();
    }
  });
  return column;
}

void EmitEnumeratedType(std::string_view table, std::string_view column,
                        const QueryFacts& facts, std::string_view how,
                        std::vector<Detection>* out) {
  Detection d;
  d.type = AntiPattern::kEnumeratedTypes;
  d.source = DetectionSource::kIntraQuery;
  d.table = table;
  d.column = column;
  d.query = facts.raw_sql;
  d.stmt = facts.stmt;
  d.message = "column '" + std::string(column) + "' restricts its domain via " +
              std::string(how) +
              "; renaming or extending values requires DDL — use a lookup table";
  out->push_back(std::move(d));
}

void EnumeratedTypesQuery(const QueryFacts& facts, const Context&,
                          const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.intra_query) return;
  if (facts.stmt == nullptr) return;

  if (const auto* create = facts.stmt->As<sql::CreateTableStatement>()) {
    for (const auto& col : create->columns) {
      DataType t = DataType::FromTypeName(col.type);
      if (t.id == TypeId::kEnum) {
        EmitEnumeratedType(create->table, col.name, facts, "ENUM type", out);
      } else if (col.check && IsInListCheck(*col.check)) {
        EmitEnumeratedType(create->table, col.name, facts,
                           "CHECK (col IN (...)) constraint", out);
      }
    }
    for (const auto& con : create->constraints) {
      if (con.kind == sql::TableConstraintKind::kCheck && con.check != nullptr &&
          IsInListCheck(*con.check)) {
        EmitEnumeratedType(create->table, CheckedColumn(*con.check), facts,
                           "CHECK constraint", out);
      }
    }
    return;
  }
  if (const auto* alter = facts.stmt->As<sql::AlterTableStatement>()) {
    if (alter->action == sql::AlterAction::kAddConstraint &&
        alter->constraint.kind == sql::TableConstraintKind::kCheck &&
        alter->constraint.check != nullptr && IsInListCheck(*alter->constraint.check)) {
      EmitEnumeratedType(alter->table, CheckedColumn(*alter->constraint.check), facts,
                         "CHECK constraint (Example 4 of the paper)", out);
    }
  }
}

void EnumeratedTypesData(const TableProfile& profile, const Context& context,
                         const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.data_analysis) return;
  const TableSchema* schema = context.catalog().FindTable(profile.table);
  if (schema == nullptr) return;
  for (const auto& col : schema->columns) {
    bool declared_enum = col.type.id == TypeId::kEnum;
    bool has_check = false;
    for (const auto& check : schema->checks) {
      if (ContainsIgnoreCase(check.expression_sql, col.name) &&
          ContainsIgnoreCase(check.expression_sql, " IN ")) {
        has_check = true;
      }
    }
    if (!declared_enum && !has_check) continue;
    const ColumnStats* stats = profile.stats.FindColumn(col.name);
    if (stats == nullptr || stats->row_count < config.min_rows_for_data_rules) continue;
    // §4.2 Example 4: ratio of distinct values to tuples below threshold.
    if (stats->DistinctRatio() > config.enum_distinct_ratio) continue;
    Detection d;
    d.type = AntiPattern::kEnumeratedTypes;
    d.source = DetectionSource::kDataAnalysis;
    d.table = profile.table;
    d.column = col.name;
    d.message = "column '" + col.name + "' takes only " +
                std::to_string(stats->distinct_count) + " distinct values over " +
                std::to_string(stats->row_count - stats->null_count) +
                " rows and is domain-constrained; use a lookup table instead";
    out->push_back(std::move(d));
  }
}

// External Data Storage.
bool SoundsLikePath(std::string_view name) {
  return ContainsIgnoreCase(name, "path") || ContainsIgnoreCase(name, "filename") ||
         EqualsIgnoreCase(name, "file") || EndsWithIgnoreCase(name, "_file") ||
         EndsWithIgnoreCase(name, "_url") || EqualsIgnoreCase(name, "url");
}

bool LooksLikeFilePath(const std::string& s) {
  if (s.size() < 3) return false;
  bool slashy = s.find('/') != std::string::npos || s.find('\\') != std::string::npos;
  bool exty = false;
  size_t dot = s.find_last_of('.');
  if (dot != std::string::npos && s.size() - dot <= 5 && dot > 0) exty = true;
  return (slashy && exty) || s.rfind("/", 0) == 0 || s.rfind("C:\\", 0) == 0;
}

void ExternalDataStorageQuery(const QueryFacts& facts, const Context&,
                              const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.intra_query) return;
  const auto* create = AsCreateTable(facts);
  if (create == nullptr) return;
  for (const auto& col : create->columns) {
    DataType t = DataType::FromTypeName(col.type);
    if (!t.IsTextual()) continue;
    if (!SoundsLikePath(col.name)) continue;
    Detection d;
    d.type = AntiPattern::kExternalDataStorage;
    d.source = DetectionSource::kIntraQuery;
    d.table = create->table;
    d.column = col.name;
    d.query = facts.raw_sql;
    d.stmt = facts.stmt;
    d.message = "column '" + col.name +
                "' stores file paths instead of content; files escape transactions, "
                "backups, and access control";
    out->push_back(std::move(d));
  }
}

void ExternalDataStorageData(const TableProfile& profile, const Context& context,
                             const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.data_analysis) return;
  if (profile.sample.size() < config.min_rows_for_data_rules) return;
  const TableSchema* schema = context.catalog().FindTable(profile.table);
  if (schema == nullptr) return;
  for (size_t c = 0; c < schema->columns.size(); ++c) {
    if (!schema->columns[c].type.IsTextual()) continue;
    size_t pathlike = 0;
    size_t non_null = 0;
    for (const Row& row : profile.sample) {
      if (c >= row.size() || !row[c].is_string()) continue;
      ++non_null;
      const std::string& s = row[c].AsString();
      if (LooksLikeFilePath(s)) ++pathlike;
    }
    if (non_null >= config.min_rows_for_data_rules &&
        pathlike * 10 >= non_null * 9) {  // >= 90% path-like
      Detection d;
      d.type = AntiPattern::kExternalDataStorage;
      d.source = DetectionSource::kDataAnalysis;
      d.table = profile.table;
      d.column = schema->columns[c].name;
      d.message = "values of '" + schema->columns[c].name +
                  "' are file-system paths; store the content (or use BLOBs) so the "
                  "DBMS manages it";
      out->push_back(std::move(d));
    }
  }
}

// Index Overuse.
bool AnyQueryUsesLeadingAlone(const Context& context, std::string_view table,
                              std::string_view leading,
                              const std::vector<std::string>& composite) {
  for (const QueryFacts* facts : context.QueriesReferencing(table)) {
    bool has_leading = false;
    size_t covered = 0;
    for (const auto& col : composite) {
      for (const auto& p : facts->predicates) {
        if (EqualsIgnoreCase(p.column, col)) {
          if (EqualsIgnoreCase(col, leading)) has_leading = true;
          ++covered;
          break;
        }
      }
    }
    if (has_leading && covered < composite.size()) return true;
  }
  return false;
}

void IndexOveruseQuery(const QueryFacts& facts, const Context& context,
                       const DetectorConfig& config, std::vector<Detection>* out) {
  // Inter-query by nature (Example 5): whether an index is redundant
  // depends on the other indexes and the whole workload.
  if (!config.inter_query) return;
  if (facts.stmt == nullptr) return;
  const auto* create = facts.stmt->As<sql::CreateIndexStatement>();
  if (create == nullptr) return;

  auto indexes = context.catalog().IndexesOnTable(create->table);
  std::vector<const IndexSchema*> user_indexes;
  for (const auto* index : indexes) {
    if (!index->system) user_indexes.push_back(index);
  }
  if (static_cast<int>(user_indexes.size()) >= config.index_overuse_count) {
    Detection d;
    d.type = AntiPattern::kIndexOveruse;
    d.source = DetectionSource::kInterQuery;
    d.table = create->table;
    d.query = facts.raw_sql;
    d.stmt = facts.stmt;
    d.message = "table '" + std::string(create->table) + "' carries " +
                std::to_string(user_indexes.size()) +
                " user indexes; every write must maintain all of them";
    out->push_back(std::move(d));
    return;
  }

  // Redundancy: this index's columns are a prefix of another index.
  for (const auto* other : user_indexes) {
    if (EqualsIgnoreCase(other->name, create->index)) continue;
    if (other->columns.size() <= create->columns.size()) continue;
    bool prefix = true;
    for (size_t i = 0; i < create->columns.size(); ++i) {
      if (!EqualsIgnoreCase(other->columns[i], create->columns[i])) prefix = false;
    }
    if (!prefix) continue;
    // Workload check (Example 5): if some query filters the leading column
    // WITHOUT the composite's remaining columns, the narrow index earns its
    // keep and is not redundant (workload 2's shape).
    if (AnyQueryUsesLeadingAlone(context, create->table, create->columns[0],
                                 other->columns)) {
      continue;
    }
    Detection d;
    d.type = AntiPattern::kIndexOveruse;
    d.source = DetectionSource::kInterQuery;
    d.table = create->table;
    d.column = create->columns.empty() ? "" : create->columns[0];
    d.query = facts.raw_sql;
    d.stmt = facts.stmt;
    d.message = "index '" + std::string(create->index) + "' is a prefix of '" + other->name +
                "' and the workload never needs it separately";
    out->push_back(std::move(d));
    return;
  }
}

// Index Underuse.
void IndexUnderuseQuery(const QueryFacts& facts, const Context& context,
                        const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.inter_query) return;
  // Performance-critical access paths: equality predicates, join keys, and
  // GROUP BY columns without a supporting index.
  auto consider = [&](std::string_view table, std::string_view column,
                      const char* role) {
    if (table.empty() || column.empty()) return;
    const TableSchema* schema = context.catalog().FindTable(table);
    if (schema == nullptr || schema->FindColumn(column) == nullptr) return;
    if (context.catalog().HasIndexOnColumn(table, column)) return;
    // A composite index containing the column can still serve conjunctive
    // predicates (its leading columns are filtered alongside) — treat the
    // column as covered rather than flag a false positive.
    for (const auto* index : context.catalog().IndexesOnTable(table)) {
      for (const auto& indexed_col : index->columns) {
        if (EqualsIgnoreCase(indexed_col, column)) return;
      }
    }
    // PK columns get an implicit index.
    for (const auto& pk : schema->primary_key) {
      if (EqualsIgnoreCase(pk, column)) return;
    }
    // Data refinement (Fig. 8c): indexing a low-cardinality column can
    // *hurt*; suppress the detection when the data says so.
    if (config.data_analysis && context.has_data()) {
      const TableProfile* profile = context.ProfileFor(table);
      if (profile != nullptr) {
        const ColumnStats* stats = profile->stats.FindColumn(column);
        if (stats != nullptr && stats->row_count >= config.min_rows_for_data_rules &&
            stats->DistinctRatio() <= config.low_cardinality_ratio) {
          return;
        }
      }
    }
    Detection d;
    d.type = AntiPattern::kIndexUnderuse;
    d.source = DetectionSource::kInterQuery;
    d.table = table;
    d.column = column;
    d.query = facts.raw_sql;
    d.stmt = facts.stmt;
    d.message = "column '" + std::string(table) + "." + std::string(column) +
                "' is used as a " + role + " but has no index";
    out->push_back(std::move(d));
  };

  // Early-exit once a filter or left-join-key detection is emitted;
  // right-join keys and grouping keys may still add one each (they surface
  // distinct index candidates).
  const size_t baseline = out->size();
  for (const auto& p : facts.predicates) {
    if (p.op == "=" || p.op == "==" || p.op == "IN") {
      consider(p.table, p.column, "filter");
      if (out->size() > baseline) return;
    }
  }
  for (const auto& j : facts.joins) {
    if (j.expression_join) continue;
    consider(j.left_table, j.left_column, "join key");
    if (out->size() > baseline) return;
    consider(j.right_table, j.right_column, "join key");
  }
  for (const auto& g : facts.group_by_columns) {
    size_t dot = g.find('.');
    if (dot == std::string::npos) continue;
    consider(g.substr(0, dot), g.substr(dot + 1), "grouping key");
  }
}

// Clone Table.
std::string StripNumericSuffix(std::string_view name) {
  size_t end = name.size();
  while (end > 0 && std::isdigit(static_cast<unsigned char>(name[end - 1]))) --end;
  if (end == name.size() || end == 0) return "";
  if (name[end - 1] == '_') --end;
  if (end == 0) return "";
  return std::string(name.substr(0, end));
}

void CloneTableQuery(const QueryFacts& facts, const Context& context,
                     const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.inter_query) return;  // needs the full catalog
  const auto* create = AsCreateTable(facts);
  if (create == nullptr) return;
  std::string base = StripNumericSuffix(create->table);
  if (base.empty() || EqualsIgnoreCase(base, create->table)) return;
  // Another table with the same base and a different suffix?
  for (const auto* other : context.catalog().Tables()) {
    if (EqualsIgnoreCase(other->name, create->table)) continue;
    std::string other_base = StripNumericSuffix(other->name);
    if (!other_base.empty() && EqualsIgnoreCase(other_base, base)) {
      Detection d;
      d.type = AntiPattern::kCloneTable;
      d.source = DetectionSource::kInterQuery;
      d.table = create->table;
      d.query = facts.raw_sql;
      d.stmt = facts.stmt;
      d.message = "tables '" + std::string(create->table) + "' and '" + other->name +
                  "' are clones of '" + base +
                  "_N'; the suffix is data — fold it into a column";
      out->push_back(std::move(d));
      return;
    }
  }
}

void CloneTableData(const TableProfile& profile, const Context& context,
                    const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.data_analysis) return;
  std::string base = StripNumericSuffix(profile.table);
  if (base.empty() || EqualsIgnoreCase(base, profile.table)) return;
  for (const auto* other : context.catalog().Tables()) {
    if (EqualsIgnoreCase(other->name, profile.table)) continue;
    std::string other_base = StripNumericSuffix(other->name);
    if (!other_base.empty() && EqualsIgnoreCase(other_base, base)) {
      Detection d;
      d.type = AntiPattern::kCloneTable;
      d.source = DetectionSource::kDataAnalysis;
      d.table = profile.table;
      d.message = "table '" + profile.table + "' matches the clone pattern '" + base +
                  "_N'";
      out->push_back(std::move(d));
      return;
    }
  }
}

// ----------------------------------- Query ----------------------------------

// Column Wildcard Usage.
void ColumnWildcardQuery(const QueryFacts& facts, const Context&,
                         const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.intra_query) return;
  if (facts.kind != sql::StatementKind::kSelect || !facts.selects_wildcard) return;
  out->push_back(MakeDetection(
      AntiPattern::kColumnWildcard, DetectionSource::kIntraQuery, facts,
      facts.tables.empty() ? "" : facts.tables[0], "",
      "SELECT * couples the application to the table layout; it breaks on "
      "refactoring and fetches columns the caller never reads"));
}

// Concatenate Nulls.
void ConcatenateNullsQuery(const QueryFacts& facts, const Context& context,
                           const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.intra_query) return;
  for (const auto& qualified : facts.concat_columns) {
    size_t dot = qualified.find('.');
    std::string table = dot == std::string::npos ? "" : qualified.substr(0, dot);
    std::string column = dot == std::string::npos ? qualified : qualified.substr(dot + 1);
    // Inter-query refinement: NOT NULL columns cannot poison the concat.
    if (config.inter_query && !table.empty() &&
        !context.ColumnNullable(table, column)) {
      continue;
    }
    out->push_back(MakeDetection(
        AntiPattern::kConcatenateNulls,
        config.inter_query ? DetectionSource::kInterQuery : DetectionSource::kIntraQuery,
        facts, table, column,
        "'" + column + "' is concatenated with ||; one NULL nulls the whole result — "
        "wrap it in COALESCE(...)"));
    return;  // one per query
  }
}

// Ordering by RAND.
void OrderingByRandQuery(const QueryFacts& facts, const Context&,
                         const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.intra_query || !facts.order_by_rand) return;
  out->push_back(MakeDetection(
      AntiPattern::kOrderingByRand, DetectionSource::kIntraQuery, facts,
      facts.tables.empty() ? "" : facts.tables[0], "",
      "ORDER BY RAND() materializes and sorts the entire result to pick random "
      "rows; sample by random key lookup instead"));
}

// Pattern Matching.
void PatternMatchingQuery(const QueryFacts& facts, const Context&,
                          const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.intra_query) return;
  for (const auto& p : facts.patterns) {
    bool regex = p.op == "REGEXP" || p.op == "RLIKE" || p.op == "SIMILAR TO";
    bool hostile_like = (p.op == "LIKE" || p.op == "ILIKE") &&
                        (p.leading_wildcard || p.word_boundary || p.computed_pattern);
    if (!regex && !hostile_like) continue;
    out->push_back(MakeDetection(
        AntiPattern::kPatternMatching, DetectionSource::kIntraQuery, facts, p.table,
        p.column,
        "predicate on '" + std::string(p.column) + "' uses " + std::string(p.op) +
            (p.leading_wildcard ? " with a leading wildcard" : "") +
            "; it defeats indexes and scans every row — consider full-text search"));
    return;
  }
}

// Implicit Columns.
void ImplicitColumnsQuery(const QueryFacts& facts, const Context&,
                          const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.intra_query) return;
  if (facts.kind != sql::StatementKind::kInsert || !facts.insert_without_columns) return;
  out->push_back(MakeDetection(
      AntiPattern::kImplicitColumns, DetectionSource::kIntraQuery, facts,
      facts.tables.empty() ? "" : facts.tables[0], "",
      "INSERT without a column list breaks silently when the schema evolves "
      "(Example 2 of the paper); name the target columns explicitly"));
}

// DISTINCT and JOIN.
void DistinctAndJoinQuery(const QueryFacts& facts, const Context&,
                          const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.intra_query) return;
  if (facts.kind != sql::StatementKind::kSelect || !facts.distinct ||
      facts.join_count < 1) {
    return;
  }
  out->push_back(MakeDetection(
      AntiPattern::kDistinctAndJoin, DetectionSource::kIntraQuery, facts,
      facts.tables.empty() ? "" : facts.tables[0], "",
      "DISTINCT papering over JOIN fan-out sorts/hashes the whole result; fix the "
      "join cardinality (semi-join/EXISTS) instead"));
}

// Too Many Joins.
void TooManyJoinsQuery(const QueryFacts& facts, const Context&,
                       const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.intra_query) return;
  if (facts.kind != sql::StatementKind::kSelect ||
      facts.join_count < config.too_many_joins) {
    return;
  }
  out->push_back(MakeDetection(
      AntiPattern::kTooManyJoins, DetectionSource::kIntraQuery, facts,
      facts.tables.empty() ? "" : facts.tables[0], "",
      "query joins " + std::to_string(facts.join_count + 1) + " tables (threshold " +
          std::to_string(config.too_many_joins) +
          "); the optimizer's search space explodes and plans degrade"));
}

// Readable Password.
bool IsPasswordName(std::string_view name) {
  return EqualsIgnoreCase(name, "password") || EqualsIgnoreCase(name, "passwd") ||
         EqualsIgnoreCase(name, "pwd") || EndsWithIgnoreCase(name, "_password");
}

void ReadablePasswordQuery(const QueryFacts& facts, const Context&,
                           const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.intra_query || facts.stmt == nullptr) return;
  if (const auto* create = facts.stmt->As<sql::CreateTableStatement>()) {
    for (const auto& col : create->columns) {
      if (!IsPasswordName(col.name)) continue;
      out->push_back(MakeDetection(
          AntiPattern::kReadablePassword, DetectionSource::kIntraQuery, facts,
          create->table, col.name,
          "column '" + std::string(col.name) +
              "' appears to store passwords; store salted hashes, never plaintext"));
      return;
    }
  }
  // Predicates comparing a password column against a string literal imply
  // plaintext comparison.
  for (const auto& p : facts.predicates) {
    if ((p.op == "=" || p.op == "==") && IsPasswordName(p.column) && !p.literal.empty()) {
      out->push_back(MakeDetection(
          AntiPattern::kReadablePassword, DetectionSource::kIntraQuery, facts, p.table,
          p.column,
          "query compares '" + std::string(p.column) +
              "' to a plaintext literal; authenticate against a salted hash"));
      return;
    }
  }
}

// ----------------------------------- Data -----------------------------------

// Missing Timezone.
void MissingTimezoneQuery(const QueryFacts& facts, const Context&,
                          const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.intra_query || facts.stmt == nullptr) return;
  const auto* create = facts.stmt->As<sql::CreateTableStatement>();
  if (create == nullptr) return;
  for (const auto& col : create->columns) {
    DataType t = DataType::FromTypeName(col.type);
    if (t.id != TypeId::kTimestamp) continue;  // tz-less timestamp type
    Detection d;
    d.type = AntiPattern::kMissingTimezone;
    d.source = DetectionSource::kIntraQuery;
    d.table = create->table;
    d.column = col.name;
    d.query = facts.raw_sql;
    d.stmt = facts.stmt;
    d.message = "column '" + col.name +
                "' is TIMESTAMP WITHOUT TIME ZONE; instants become ambiguous across "
                "deployments — use TIMESTAMPTZ";
    out->push_back(std::move(d));
    return;
  }
}

void MissingTimezoneData(const TableProfile& profile, const Context& context,
                         const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.data_analysis) return;
  const TableSchema* schema = context.catalog().FindTable(profile.table);
  for (const auto& stats : profile.stats.columns) {
    if (stats.row_count < config.min_rows_for_data_rules) continue;
    bool schema_tzless = false;
    if (schema != nullptr) {
      const ColumnSchema* col = schema->FindColumn(stats.column);
      if (col != nullptr && col->type.id == TypeId::kTimestamp) schema_tzless = true;
    }
    bool data_tzless =
        stats.date_string_fraction >= 0.9 && stats.timezone_fraction <= 0.1;
    if (!schema_tzless && !data_tzless) continue;
    out->push_back(DataDetection(
        AntiPattern::kMissingTimezone, profile.table, stats.column,
        "date-time values in '" + stats.column + "' carry no timezone"));
    return;  // one per table keeps the report readable
  }
}

// Incorrect Data Type.
void IncorrectDataTypeData(const TableProfile& profile, const Context& context,
                           const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.data_analysis) return;
  const TableSchema* schema = context.catalog().FindTable(profile.table);
  if (schema == nullptr) return;
  for (const auto& stats : profile.stats.columns) {
    if (stats.row_count - stats.null_count < config.min_rows_for_data_rules) continue;
    const ColumnSchema* col = schema->FindColumn(stats.column);
    if (col == nullptr || !col->type.IsTextual()) continue;
    if (stats.numeric_string_fraction >= config.numeric_string_fraction) {
      out->push_back(DataDetection(
          AntiPattern::kIncorrectDataType, profile.table, stats.column,
          "column '" + stats.column + "' is " + col->type.ToSql() + " but " +
              std::to_string(static_cast<int>(stats.numeric_string_fraction * 100)) +
              "% of sampled values are numbers; numeric storage is smaller and "
              "comparable"));
      continue;
    }
    if (stats.date_string_fraction >= config.numeric_string_fraction) {
      out->push_back(DataDetection(
          AntiPattern::kIncorrectDataType, profile.table, stats.column,
          "column '" + stats.column +
              "' stores date-times as text; use a temporal type"));
    }
  }
}

// Denormalized Table.
bool IsKeyColumn(const TableSchema& schema, const std::string& column) {
  for (const auto& pk : schema.primary_key) {
    if (EqualsIgnoreCase(pk, column)) return true;
  }
  return false;
}

bool FunctionallyDetermines(const std::vector<Row>& sample, size_t x, size_t y) {
  std::map<std::string, std::string> mapping;
  bool repeats = false;
  for (const Row& row : sample) {
    if (x >= row.size() || y >= row.size()) return false;
    if (row[x].is_null() || row[y].is_null()) continue;
    std::string key = row[x].ToDisplay();
    std::string value = row[y].ToDisplay();
    auto [it, inserted] = mapping.emplace(key, value);
    if (!inserted) {
      if (it->second != value) return false;  // not functional
      repeats = true;
    }
  }
  return repeats && mapping.size() >= 2;
}

void DenormalizedTableData(const TableProfile& profile, const Context& context,
                           const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.data_analysis) return;
  const TableSchema* schema = context.catalog().FindTable(profile.table);
  if (schema == nullptr || profile.sample.size() < config.min_rows_for_data_rules) return;

  // Look for a functional dependency X -> Y between non-key columns where X
  // repeats: the (X, Y) pairs belong in their own table.
  const auto& columns = schema->columns;
  for (size_t x = 0; x < columns.size(); ++x) {
    if (IsKeyColumn(*schema, columns[x].name)) continue;
    const ColumnStats* xs = profile.stats.FindColumn(columns[x].name);
    if (xs == nullptr || xs->distinct_count == 0) continue;
    // X must repeat meaningfully.
    size_t non_null = xs->row_count - xs->null_count;
    if (non_null < 2 * xs->distinct_count) continue;
    for (size_t y = 0; y < columns.size(); ++y) {
      if (x == y || IsKeyColumn(*schema, columns[y].name)) continue;
      if (!columns[y].type.IsTextual()) continue;
      if (!FunctionallyDetermines(profile.sample, x, y)) continue;
      const ColumnStats* ys = profile.stats.FindColumn(columns[y].name);
      if (ys == nullptr || ys->distinct_count < 2) continue;  // constants are a
                                                              // different AP
      out->push_back(DataDetection(
          AntiPattern::kDenormalizedTable, profile.table, columns[y].name,
          "'" + columns[y].name + "' is functionally determined by '" +
              columns[x].name + "' and duplicated across rows; normalize the pair "
              "into a lookup table"));
      return;
    }
  }
}

// Information Duplication.
bool SumHolds(const std::vector<Row>& sample, size_t x, size_t y, size_t z) {
  int checked = 0;
  for (const Row& row : sample) {
    if (x >= row.size() || y >= row.size() || z >= row.size()) return false;
    if (row[x].is_null() || row[y].is_null() || row[z].is_null()) continue;
    if (std::fabs(row[x].AsReal() + row[y].AsReal() - row[z].AsReal()) > 1e-9) {
      return false;
    }
    ++checked;
  }
  return checked >= 3;
}

void InformationDuplicationData(const TableProfile& profile, const Context& context,
                                const DetectorConfig& config,
                                std::vector<Detection>* out) {
  if (!config.data_analysis) return;
  const TableSchema* schema = context.catalog().FindTable(profile.table);
  if (schema == nullptr || profile.sample.size() < config.min_rows_for_data_rules) return;
  const auto& columns = schema->columns;

  // Name-based pair: an age column next to a birth-date column.
  int age_idx = -1;
  int dob_idx = -1;
  for (size_t c = 0; c < columns.size(); ++c) {
    std::string_view name = columns[c].name;
    if (EqualsIgnoreCase(name, "age")) age_idx = static_cast<int>(c);
    if (ContainsIgnoreCase(name, "birth") || EqualsIgnoreCase(name, "dob")) {
      dob_idx = static_cast<int>(c);
    }
  }
  if (age_idx >= 0 && dob_idx >= 0) {
    out->push_back(DataDetection(
        AntiPattern::kInformationDuplication, profile.table,
        columns[static_cast<size_t>(age_idx)].name,
        "'age' duplicates information derivable from '" +
            columns[static_cast<size_t>(dob_idx)].name +
            "'; it goes stale and must be maintained on every write"));
    return;
  }

  // Arithmetic duplication: numeric Z = X + Y across the whole sample.
  std::vector<size_t> numeric;
  for (size_t c = 0; c < columns.size(); ++c) {
    if (columns[c].type.IsNumeric()) numeric.push_back(c);
  }
  for (size_t zi : numeric) {
    for (size_t xi : numeric) {
      if (xi == zi) continue;
      for (size_t yi : numeric) {
        if (yi == zi || yi < xi) continue;  // yi<xi dedupes (x,y) pairs; x may equal y
        if (SumHolds(profile.sample, xi, yi, zi)) {
          out->push_back(DataDetection(
              AntiPattern::kInformationDuplication, profile.table, columns[zi].name,
              "'" + columns[zi].name + "' always equals " + columns[xi].name + " + " +
                  columns[yi].name + " in the sample; derived columns drift when a "
                  "source column changes"));
          return;
        }
      }
    }
  }
}

// Redundant Column.
void RedundantColumnData(const TableProfile& profile, const Context&,
                         const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.data_analysis) return;
  for (const auto& stats : profile.stats.columns) {
    if (stats.row_count < config.min_rows_for_data_rules) continue;
    if (stats.NullFraction() >= config.redundant_fraction) {
      out->push_back(DataDetection(
          AntiPattern::kRedundantColumn, profile.table, stats.column,
          "column '" + stats.column + "' is NULL in " +
              std::to_string(static_cast<int>(stats.NullFraction() * 100)) +
              "% of rows; it stores nothing"));
      continue;
    }
    size_t non_null = stats.row_count - stats.null_count;
    if (non_null >= config.min_rows_for_data_rules && stats.distinct_count == 1) {
      out->push_back(DataDetection(
          AntiPattern::kRedundantColumn, profile.table, stats.column,
          "column '" + stats.column + "' holds the single value '" +
              stats.top_value.ToDisplay() + "' in every row (e.g. a hard-coded "
              "'en-us' locale)"));
    }
  }
}

// No Domain Constraint.
bool SoundsBounded(std::string_view name) {
  return ContainsIgnoreCase(name, "rating") || ContainsIgnoreCase(name, "score") ||
         ContainsIgnoreCase(name, "percent") || ContainsIgnoreCase(name, "grade") ||
         EqualsIgnoreCase(name, "stars") || EqualsIgnoreCase(name, "priority") ||
         EqualsIgnoreCase(name, "level");
}

bool HasCheckOn(const TableSchema& schema, const std::string& column) {
  for (const auto& check : schema.checks) {
    if (ContainsIgnoreCase(check.expression_sql, column)) return true;
  }
  return false;
}

void NoDomainConstraintData(const TableProfile& profile, const Context& context,
                            const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.data_analysis) return;
  const TableSchema* schema = context.catalog().FindTable(profile.table);
  if (schema == nullptr) return;
  for (const auto& col : schema->columns) {
    if (!col.type.IsNumeric()) continue;
    if (!SoundsBounded(col.name)) continue;
    if (HasCheckOn(*schema, col.name)) continue;
    const ColumnStats* stats = profile.stats.FindColumn(col.name);
    if (stats == nullptr || stats->row_count - stats->null_count <
                                config.min_rows_for_data_rules) {
      continue;
    }
    if (!stats->min.has_value() || !stats->max.has_value()) continue;
    double lo = stats->min->AsReal();
    double hi = stats->max->AsReal();
    // Observed values live in a tight conventional range.
    bool tight = (lo >= 0 && hi <= 5) || (lo >= 0 && hi <= 10) || (lo >= 0 && hi <= 100);
    if (!tight) continue;
    out->push_back(DataDetection(
        AntiPattern::kNoDomainConstraint, profile.table, col.name,
        "'" + col.name + "' values span [" + stats->min->ToDisplay() + ", " +
            stats->max->ToDisplay() +
            "] but no CHECK constraint enforces the range; bad writes will pass "
            "silently"));
  }
}

constexpr ApCategory kLogical = ApCategory::kLogicalDesign;
constexpr ApCategory kPhysical = ApCategory::kPhysicalDesign;
constexpr ApCategory kQuery = ApCategory::kQuery;
constexpr ApCategory kData = ApCategory::kData;
constexpr QueryRuleScope kLocal = QueryRuleScope::kStatementLocal;
constexpr QueryRuleScope kWorkload = QueryRuleScope::kWorkload;

// One row per anti-pattern, in AntiPattern order. Category and impact flags
// are Table 1 of the paper. The scope is kLocal only when the query check
// never reads its context argument. Metrics are {RP, WP, M, DA, DI, A}
// (ApMetrics): RP/WP come from the paper's measurements where stated
// (Figs. 3 and 8), the rest follow Table 1's impact flags.
constexpr ApInfo kBuiltinRules[] = {
    {AntiPattern::kMultiValuedAttribute, "Multi-Valued Attribute", kLogical,
     true, true, true, true, true, kWorkload, {636.0, 3.0, 4.0, 2.0, 1, 1},  // Fig 3a
     MultiValuedAttributeQuery, MultiValuedAttributeData},
    {AntiPattern::kNoPrimaryKey, "No Primary Key", kLogical,
     true, true, true, true, false, kLocal, {2.0, 1.0, 3.0, 2.0, 1, 0},
     NoPrimaryKeyQuery, NoPrimaryKeyData},
    {AntiPattern::kNoForeignKey, "No Foreign Key", kLogical,
     true, true, false, true, false, kWorkload, {1.1, 1.1, 3.0, 0.0, 1, 0},  // Fig 8d/e
     NoForeignKeyQuery, NoForeignKeyData},
    {AntiPattern::kGenericPrimaryKey, "Generic Primary Key", kLogical,
     false, true, false, false, false, kLocal, {0.0, 0.0, 1.0, 0.0, 0, 0},
     GenericPrimaryKeyQuery, GenericPrimaryKeyData},
    {AntiPattern::kDataInMetadata, "Data in Metadata", kLogical,
     true, true, true, true, true, kLocal, {2.0, 1.5, 4.0, 2.0, 1, 1},
     DataInMetadataQuery, DataInMetadataData},
    {AntiPattern::kAdjacencyList, "Adjacency List", kLogical,
     true, false, false, false, false, kLocal, {1.1, 0.0, 2.0, 0.0, 0, 0},  // §8.5: PG11
     AdjacencyListQuery, nullptr},
    {AntiPattern::kGodTable, "God Table", kLogical,
     true, true, false, false, false, kLocal, {1.5, 1.2, 3.0, 0.0, 0, 0},
     GodTableQuery, GodTableData},

    {AntiPattern::kRoundingErrors, "Rounding Errors", kPhysical,
     false, false, false, false, true, kLocal, {0.0, 0.0, 1.0, 0.0, 0, 1},
     RoundingErrorsQuery, RoundingErrorsData},
    {AntiPattern::kEnumeratedTypes, "Enumerated Types", kPhysical,
     true, true, true, false, false, kLocal, {0.0, 10.0, 2.0, 1.0, 0, 0},  // Fig 7b
     EnumeratedTypesQuery, EnumeratedTypesData},
    {AntiPattern::kExternalDataStorage, "External Data Storage", kPhysical,
     false, true, false, true, true, kLocal, {0.0, 0.0, 2.0, 0.0, 1, 1},
     ExternalDataStorageQuery, ExternalDataStorageData},
    {AntiPattern::kIndexOveruse, "Index Overuse", kPhysical,
     true, true, true, false, false, kWorkload, {1.0, 10.0, 1.0, 1.0, 0, 0},  // Fig 8a
     IndexOveruseQuery, nullptr},
    {AntiPattern::kIndexUnderuse, "Index Underuse", kPhysical,
     true, true, true, false, false, kWorkload, {1.5, 0.0, 0.0, 0.0, 0, 0},  // Fig 7b
     IndexUnderuseQuery, nullptr},
    {AntiPattern::kCloneTable, "Clone Table", kPhysical,
     true, true, false, true, true, kWorkload, {1.5, 1.0, 4.0, 0.0, 1, 1},
     CloneTableQuery, CloneTableData},

    {AntiPattern::kColumnWildcard, "Column Wildcard Usage", kQuery,
     true, false, false, false, true, kLocal, {1.3, 0.0, 1.0, 0.0, 0, 1},
     ColumnWildcardQuery, nullptr},
    {AntiPattern::kConcatenateNulls, "Concatenate Nulls", kQuery,
     false, false, false, false, true, kWorkload, {0.0, 0.0, 0.5, 0.0, 0, 1},
     ConcatenateNullsQuery, nullptr},
    {AntiPattern::kOrderingByRand, "Ordering by RAND", kQuery,
     true, false, false, false, false, kLocal, {5.0, 0.0, 0.0, 0.0, 0, 0},
     OrderingByRandQuery, nullptr},
    {AntiPattern::kPatternMatching, "Pattern Matching", kQuery,
     true, false, false, false, false, kLocal, {10.0, 0.0, 0.5, 0.0, 0, 0},
     PatternMatchingQuery, nullptr},
    {AntiPattern::kImplicitColumns, "Implicit Columns", kQuery,
     false, true, false, true, false, kLocal, {0.0, 0.0, 2.0, 0.0, 1, 0},
     ImplicitColumnsQuery, nullptr},
    {AntiPattern::kDistinctAndJoin, "DISTINCT and JOIN", kQuery,
     true, true, false, false, false, kLocal, {2.0, 0.0, 1.0, 0.0, 0, 0},
     DistinctAndJoinQuery, nullptr},
    {AntiPattern::kTooManyJoins, "Too Many Joins", kQuery,
     true, false, false, false, false, kLocal, {3.0, 0.0, 0.5, 0.0, 0, 0},
     TooManyJoinsQuery, nullptr},
    {AntiPattern::kReadablePassword, "Readable Password", kQuery,
     false, false, false, true, true, kLocal, {0.0, 0.0, 0.5, 0.0, 1, 1},
     ReadablePasswordQuery, nullptr},

    {AntiPattern::kMissingTimezone, "Missing Timezone", kData,
     false, false, false, false, true, kLocal, {0.0, 0.0, 1.0, 0.0, 0, 1},
     MissingTimezoneQuery, MissingTimezoneData},
    {AntiPattern::kIncorrectDataType, "Incorrect Data Type", kData,
     true, false, true, false, false, kWorkload, {1.5, 0.0, 1.0, 2.0, 0, 0},
     nullptr, IncorrectDataTypeData},
    {AntiPattern::kDenormalizedTable, "Denormalized Table", kData,
     true, false, true, false, false, kWorkload, {1.5, 0.0, 1.0, 3.0, 0, 0},
     nullptr, DenormalizedTableData},
    {AntiPattern::kInformationDuplication, "Information Duplication", kData,
     false, true, false, true, true, kWorkload, {0.0, 0.0, 2.0, 1.0, 1, 1},
     nullptr, InformationDuplicationData},
    {AntiPattern::kRedundantColumn, "Redundant Column", kData,
     false, false, true, false, false, kWorkload, {0.0, 0.0, 0.5, 2.0, 0, 0},
     nullptr, RedundantColumnData},
    {AntiPattern::kNoDomainConstraint, "No Domain Constraint", kData,
     false, true, true, true, false, kWorkload, {0.0, 0.0, 1.0, 1.0, 1, 0},
     nullptr, NoDomainConstraintData},
};

constexpr bool InAntiPatternOrder() {
  for (int t = 0; t < kAntiPatternCount; ++t) {
    if (kBuiltinRules[t].type != static_cast<AntiPattern>(t)) return false;
  }
  return true;
}
static_assert(sizeof(kBuiltinRules) / sizeof(kBuiltinRules[0]) == kAntiPatternCount,
              "rule table out of sync with the AntiPattern enum");
static_assert(InAntiPatternOrder(), "rule table rows must follow AntiPattern order");

}  // namespace

const ApInfo& InfoFor(AntiPattern type) {
  int t = static_cast<int>(type);
  return kBuiltinRules[t >= 0 && t < kAntiPatternCount ? t : 0];
}

const char* ApName(AntiPattern type) { return InfoFor(type).name; }

const ApInfo* FindApInfoByName(std::string_view name) {
  for (const ApInfo& info : kBuiltinRules) {
    if (EqualsIgnoreCase(info.name, name)) return &info;
  }
  return nullptr;
}

const char* CategoryName(ApCategory category) {
  switch (category) {
    case ApCategory::kLogicalDesign: return "Logical Design";
    case ApCategory::kPhysicalDesign: return "Physical Design";
    case ApCategory::kQuery: return "Query";
    case ApCategory::kData: return "Data";
  }
  return "Unknown";
}

}  // namespace sqlcheck
