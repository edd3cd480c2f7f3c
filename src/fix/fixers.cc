#include "fix/fixers.h"

#include <string>
#include <utility>

#include "common/strings.h"
#include "fix/rewriter.h"
#include "sql/printer.h"

namespace sqlcheck {

namespace {

/// Seeds the common Fix fields from the detection.
Fix BaseFix(const Detection& d) {
  Fix fix;
  fix.type = d.type;
  fix.original_sql = d.query;
  return fix;
}

/// A textual fix: guidance for the developer, with optional sketch DDL.
Fix Guide(const Detection& d, std::string explanation, std::string sketch = {}) {
  Fix fix = BaseFix(d);
  if (!sketch.empty()) fix.statements.push_back(std::move(sketch));
  fix.explanation = std::move(explanation);
  return fix;
}

/// An additive DDL fix: new statements the developer runs once.
Fix Emit(const Detection& d, std::vector<std::string> statements,
         std::string explanation) {
  Fix fix = BaseFix(d);
  fix.kind = FixKind::kRewrite;
  fix.statements = std::move(statements);
  fix.explanation = std::move(explanation);
  return fix;
}

/// A statement-replacing AST rewrite when the rewriter produced one
/// (explained by `done`), otherwise `guidance`.
Fix RewriteOrGuide(const Detection& d, const sql::StatementPtr& rewritten,
                   std::string done, std::string guidance) {
  if (rewritten == nullptr) return Guide(d, std::move(guidance));
  Fix fix = Emit(d, {sql::PrintStatement(*rewritten)}, std::move(done));
  fix.replaces_original = true;
  return fix;
}

/// The detection's parse tree as a `T`, or nullptr.
template <typename T>
const T* StmtAs(const Detection& d) {
  return d.stmt != nullptr ? d.stmt->As<T>() : nullptr;
}

std::string IndexNameFor(std::string_view table, std::string_view column) {
  return "idx_" + ToLower(table) + "_" + ToLower(column);
}

/// Workload queries (other than `self`) that reference `table` — Algorithm
/// 4's GetImpactedQueries, answered through the WorkloadStats per-table
/// statement index (O(queries-on-table), not O(workload)).
std::vector<std::string> ImpactedQueries(const Context& context, std::string_view table,
                                         std::string_view self) {
  std::vector<std::string> out;
  for (const QueryFacts* facts : context.QueriesReferencing(table)) {
    if (facts->raw_sql.empty() || facts->raw_sql == self) continue;
    if (facts->kind == sql::StatementKind::kCreateTable ||
        facts->kind == sql::StatementKind::kCreateIndex) {
      continue;
    }
    out.emplace_back(facts->raw_sql);
  }
  return out;
}

/// Best-effort primary-key candidate for a table lacking one: a column whose
/// sampled values are unique, preferring id-ish names.
std::string PkCandidate(const Context& context, std::string_view table) {
  const TableSchema* schema = context.catalog().FindTable(table);
  if (schema == nullptr) return "";
  const TableProfile* profile = context.ProfileFor(table);
  std::string fallback;
  for (const auto& col : schema->columns) {
    bool idish = EqualsIgnoreCase(col.name, "id") || EndsWithIgnoreCase(col.name, "_id");
    bool unique_in_data = false;
    if (profile != nullptr) {
      const ColumnStats* stats = profile->stats.FindColumn(col.name);
      if (stats != nullptr && stats->row_count > 0 && stats->null_count == 0 &&
          stats->distinct_count == stats->row_count) {
        unique_in_data = true;
      }
    }
    if (idish && (profile == nullptr || unique_in_data)) return col.name;
    if (unique_in_data && fallback.empty()) fallback = col.name;
  }
  return fallback;
}

/// The column's sampled statistics, or nullptr without a profile.
const ColumnStats* StatsFor(const Context& context, const Detection& d) {
  const TableProfile* profile = context.ProfileFor(d.table);
  return profile != nullptr ? profile->stats.FindColumn(d.column) : nullptr;
}

/// One built-in fixer: Algorithm 4's repair rule for one anti-pattern.
/// `scope` and `contract` answer Fixer::fix_scope() and
/// Fixer::equivalence(); `text` is FixerContract() (--explain and
/// docs/RULES.md). A Tier-3 contract other than not-applicable is named in
/// `text`.
struct FixerRow {
  AntiPattern type;
  QueryRuleScope scope;
  EquivalenceContract contract;
  const char* text;
  Fix (*propose)(const Detection& d, const Context& context);
};

constexpr QueryRuleScope kLocal = QueryRuleScope::kStatementLocal;
constexpr QueryRuleScope kWorkload = QueryRuleScope::kWorkload;
constexpr EquivalenceContract kNoTier3 = EquivalenceContract::kNotApplicable;

// Algorithm 4's repair table, one row per anti-pattern in AntiPattern order.
// Query-shape rows route through the AST rewriter; design and data rows emit
// additive DDL or textual guidance, sometimes with sketch DDL attached.
constexpr FixerRow kFixers[] = {
    // ---------------------------- Logical design ----------------------------
    {AntiPattern::kMultiValuedAttribute, kWorkload, kNoTier3,
     "emits the intersection-table conversion (the paper's Hosting fix, §2.1.1) and "
     "lists the impacted queries",
     [](const Detection& d, const Context& context) {
       std::string map_table = d.table + "_" + d.column + "_map";
       std::string parent_pk = "id";
       const TableSchema* schema = context.catalog().FindTable(d.table);
       if (schema != nullptr && !schema->primary_key.empty()) {
         parent_pk = schema->primary_key[0];
       }
       Fix fix = Emit(
           d,
           {"CREATE TABLE " + map_table + " (" + parent_pk + " VARCHAR(64) REFERENCES " +
                d.table + " (" + parent_pk + "), value VARCHAR(64), PRIMARY KEY (" +
                parent_pk + ", value));",
            "ALTER TABLE " + d.table + " DROP COLUMN " + d.column + ";"},
           "replaced the delimiter-separated list with intersection table '" +
               map_table +
               "' (the paper's Hosting-table fix, §2.1.1); rewrite LIKE-based lookups "
               "as indexed joins through it");
       fix.impacted_queries = ImpactedQueries(context, d.table, d.query);
       return fix;
     }},
    {AntiPattern::kNoPrimaryKey, kWorkload, kNoTier3,
     "emits ALTER TABLE ... ADD PRIMARY KEY on a column the sampled data proves "
     "unique; textual when no candidate exists",
     [](const Detection& d, const Context& context) {
       std::string candidate = PkCandidate(context, d.table);
       if (candidate.empty()) {
         return Guide(d, "add a PRIMARY KEY to '" + d.table +
                             "' (introduce a surrogate key column if no natural key "
                             "exists)");
       }
       return Emit(
           d, {"ALTER TABLE " + d.table + " ADD PRIMARY KEY (" + candidate + ");"},
           "'" + candidate +
               "' is unique across the sampled data, so it can carry the primary key");
     }},
    {AntiPattern::kNoForeignKey, kWorkload, kNoTier3,
     "emits ALTER TABLE ... ADD CONSTRAINT FOREIGN KEY for the join edge the workload "
     "already exercises",
     [](const Detection& d, const Context& context) {
       if (!d.table.empty() && !d.column.empty()) {
         // Detection recorded the join edge's right side; find the other table.
         // Only statements referencing d.table can carry the edge, so the
         // per-table statement index answers this without an O(workload) scan.
         std::string parent;
         for (const QueryFacts* facts : context.QueriesReferencing(d.table)) {
           for (const auto& j : facts->joins) {
             if (EqualsIgnoreCase(j.right_table, d.table) &&
                 EqualsIgnoreCase(j.right_column, d.column) && !j.left_table.empty()) {
               parent = j.left_table;
             }
           }
         }
         if (!parent.empty()) {
           return Emit(d,
                       {"ALTER TABLE " + d.table + " ADD CONSTRAINT fk_" +
                        ToLower(d.table) + "_" + ToLower(d.column) + " FOREIGN KEY (" +
                        d.column + ") REFERENCES " + parent + " (" + d.column + ");"},
                       "declared the foreign key the JOIN already implies, so the DBMS "
                       "enforces referential integrity");
         }
       }
       return Guide(d, "declare FOREIGN KEY constraints for the join relationships of "
                       "table '" + d.table + "'");
     }},
    {AntiPattern::kGenericPrimaryKey, kLocal, kNoTier3,
     "guidance plus a RENAME COLUMN sketch toward a descriptive key name",
     [](const Detection& d, const Context&) {
       std::string key = ToLower(d.table) + "_id";
       return Guide(d,
                    "a descriptive key name disambiguates joins (USING(" + key +
                        ")) and self-documents foreign keys",
                    "ALTER TABLE " + d.table + " RENAME COLUMN id TO " + key + ";");
     }},
    {AntiPattern::kDataInMetadata, kLocal, kNoTier3,
     "guidance: fold the numbered-series index into rows of a child table",
     [](const Detection& d, const Context&) {
       return Guide(d, "the numbered columns/tables of '" + d.table +
                           "' encode a data dimension in schema names; fold the series "
                           "index into a column of a child table");
     }},
    {AntiPattern::kAdjacencyList, kLocal, kNoTier3,
     "guidance plus sketch DDL for a closure table (or recursive CTEs)",
     [](const Detection& d, const Context&) {
       std::string closure = d.table + "_paths";
       return Guide(d,
                    "self-referencing '" + d.table + "." + d.column +
                        "' needs recursive traversal for subtree queries; materialize a "
                        "closure table ('" + closure +
                        "') or use recursive CTEs where supported",
                    "CREATE TABLE " + closure +
                        " (ancestor VARCHAR(64), descendant VARCHAR(64), depth INTEGER, "
                        "PRIMARY KEY (ancestor, descendant));");
     }},
    {AntiPattern::kGodTable, kLocal, kNoTier3,
     "guidance: vertically partition by update cadence and access pattern",
     [](const Detection& d, const Context&) {
       return Guide(d, "vertically partition '" + d.table +
                           "' into entity-focused tables; group columns by update "
                           "cadence and access pattern, linked by the primary key");
     }},

    // ---------------------------- Physical design ---------------------------
    {AntiPattern::kRoundingErrors, kWorkload, kNoTier3,
     "emits ALTER COLUMN ... TYPE NUMERIC(12, 2) — exact decimals instead of drifting "
     "FLOAT",
     [](const Detection& d, const Context&) {
       return Emit(d,
                   {"ALTER TABLE " + d.table + " ALTER COLUMN " + d.column +
                    " TYPE NUMERIC(12, 2);"},
                   "NUMERIC stores exact decimals; FLOAT drifts under aggregation and "
                   "breaks equality predicates");
     }},
    {AntiPattern::kEnumeratedTypes, kWorkload, kNoTier3,
     "emits the lookup-table conversion of Fig. 5 and lists the impacted queries",
     [](const Detection& d, const Context& context) {
       std::string lookup = d.column + "_lookup";
       Fix fix = Emit(d,
                      {"CREATE TABLE " + lookup + " (" + d.column +
                           "_id SERIAL PRIMARY KEY, " + d.column +
                           "_name VARCHAR(64) UNIQUE NOT NULL);",
                       "ALTER TABLE " + d.table + " ADD COLUMN " + d.column +
                           "_id INTEGER REFERENCES " + lookup + " (" + d.column + "_id);",
                       "ALTER TABLE " + d.table + " DROP COLUMN " + d.column + ";"},
                      "moved the value domain into lookup table '" + lookup +
                          "' (Fig. 5 of the paper); renaming a value becomes one UPDATE "
                          "instead of DROP CONSTRAINT + UPDATE + ADD CONSTRAINT");
       fix.impacted_queries = ImpactedQueries(context, d.table, d.query);
       return fix;
     }},
    {AntiPattern::kExternalDataStorage, kLocal, kNoTier3,
     "guidance: store file content in a BLOB column so it participates in transactions "
     "and backups",
     [](const Detection& d, const Context&) {
       return Guide(d, "store the file content in a BLOB column (or at minimum enforce "
                       "path integrity at the application edge); external files miss "
                       "transactions, backups, and permissions");
     }},
    {AntiPattern::kIndexOveruse, kWorkload, kNoTier3,
     "emits DROP INDEX for the unused index; textual when the defining statement is not "
     "in the workload",
     [](const Detection& d, const Context&) {
       const auto* create = StmtAs<sql::CreateIndexStatement>(d);
       if (create == nullptr) {
         return Guide(d, "drop the indexes on '" + d.table +
                             "' that no query uses, or merge single-column indexes "
                             "into one multi-column index");
       }
       return Emit(d, {"DROP INDEX " + std::string(create->index) + ";"},
                   "dropped the redundant index; every write was paying its "
                   "maintenance cost (Fig. 8a shows ~10x slower UPDATEs)");
     }},
    {AntiPattern::kIndexUnderuse, kWorkload, kNoTier3,
     "emits CREATE INDEX on the unindexed performance-critical access path",
     [](const Detection& d, const Context&) {
       return Emit(d,
                   {"CREATE INDEX " + IndexNameFor(d.table, d.column) + " ON " +
                    d.table + " (" + d.column + ");"},
                   "added the missing index on the performance-critical access path");
     }},
    {AntiPattern::kCloneTable, kLocal, kNoTier3,
     "guidance: merge clones into one table with a discriminator column",
     [](const Detection& d, const Context&) {
       return Guide(d, "merge the '" + d.table +
                           "'-style clones into one table with a discriminator column; "
                           "the numeric suffix is data, and cross-clone queries "
                           "currently need UNIONs");
     }},

    // ------------------------------ Query shape -----------------------------
    // Expanding * into the concrete column list is a pure spelling change:
    // same rows, same order, same columns.
    {AntiPattern::kColumnWildcard, kWorkload, EquivalenceContract::kExactOrdered,
     "mechanical rewrite: expands * into the catalog's column list (qualified per "
     "source when several tables are read); textual when a source is a subquery or "
     "missing from the catalog, and for a bare * over a USING join (which lists each "
     "USING column once); equivalence contract: exact-ordered — differential execution "
     "requires identical rows in identical order",
     [](const Detection& d, const Context& context) {
       const auto* select = StmtAs<sql::SelectStatement>(d);
       return RewriteOrGuide(
           d, select != nullptr ? ExpandWildcard(*select, context) : nullptr,
           "expanded SELECT * into the concrete column list so schema changes cannot "
           "silently alter the result shape",
           "replace SELECT * with the columns the caller actually reads");
     }},
    // The COALESCE wrap is the point of the fix: rows where a nullable operand
    // is NULL change from NULL to the non-null concatenation. Judging this
    // exact-equivalent would demote every correct proposal.
    {AntiPattern::kConcatenateNulls, kWorkload,
     EquivalenceContract::kDocumentedDivergence,
     "mechanical rewrite: wraps nullable || / CONCAT operands in COALESCE(col, ''); "
     "equivalence contract: documented-divergence — rows with NULL operands "
     "intentionally change from NULL to the non-null concatenation, so execution is "
     "checked but results are not compared",
     [](const Detection& d, const Context& context) {
       const auto* select = StmtAs<sql::SelectStatement>(d);
       return RewriteOrGuide(
           d, select != nullptr ? WrapConcatNulls(*select, context) : nullptr,
           "wrapped nullable operands of || in COALESCE so a NULL field no longer "
           "voids the whole concatenation",
           "wrap nullable columns in COALESCE(col, '') before concatenating");
     }},
    // Both sides sample at random — identical results are neither possible nor
    // wanted. Tier 3 only requires the pk-probe to execute on populated tables.
    {AntiPattern::kOrderingByRand, kWorkload, EquivalenceContract::kDocumentedDivergence,
     "mechanical rewrite: ORDER BY RAND() ... LIMIT n becomes a random primary-key "
     "range probe; textual without a LIMIT or a single-column primary key; equivalence "
     "contract: documented-divergence — both sides sample at random, so execution is "
     "checked but results are not compared",
     [](const Detection& d, const Context& context) {
       const auto* select = StmtAs<sql::SelectStatement>(d);
       return RewriteOrGuide(
           d, select != nullptr ? ReplaceOrderByRand(*select, context) : nullptr,
           "replaced ORDER BY RAND() with a random primary-key range probe; the DBMS "
           "seeks one index range instead of sorting the entire result",
           "ORDER BY RAND() sorts the entire result; pick a random key instead (e.g. "
           "WHERE key >= <random value in key range> ORDER BY key LIMIT 1) or sample "
           "ids in the application");
     }},
    // REVERSE(col) LIKE 'liat%' selects the same rows but frees the engine to
    // return them in a different order (the index it enables sorts by the
    // reversed value), so the contract is multiset, not ordered.
    {AntiPattern::kPatternMatching, kLocal, EquivalenceContract::kMultiset,
     "mechanical rewrite: col LIKE '%tail' becomes REVERSE(col) LIKE 'liat%' "
     "(serviceable by a functional index); textual for regexes and infix patterns; "
     "equivalence contract: multiset — differential execution requires the same rows, "
     "in any order",
     [](const Detection& d, const Context&) {
       const auto* select = StmtAs<sql::SelectStatement>(d);
       return RewriteOrGuide(
           d, select != nullptr ? RewriteLeadingWildcards(*select) : nullptr,
           "reversed the leading-wildcard LIKE into a prefix match on REVERSE(column); "
           "add a functional index on REVERSE(column) and the scan becomes an index "
           "range probe",
           "pattern predicates on '" + d.column +
               "' cannot use B-tree indexes; add a full-text/trigram index, or "
               "restructure the data so equality predicates suffice");
     }},
    // Naming the columns of a full-width INSERT must not change what lands in
    // the table: Tier 3 compares the resulting table states exactly.
    {AntiPattern::kImplicitColumns, kWorkload, EquivalenceContract::kExactOrdered,
     "mechanical rewrite: names the INSERT's target columns from the catalog; textual "
     "when the table is unknown, when a VALUES row's arity mismatches the schema, or "
     "when an INSERT ... SELECT list has a * or the wrong width; equivalence contract: "
     "exact-ordered — differential execution requires identical table states afterward",
     [](const Detection& d, const Context& context) {
       const auto* insert = StmtAs<sql::InsertStatement>(d);
       return RewriteOrGuide(
           d, insert != nullptr ? ExpandInsertColumns(*insert, context) : nullptr,
           "named the target columns explicitly so the INSERT survives schema evolution",
           "list the target columns of table '" + d.table + "' explicitly in the INSERT");
     }},
    {AntiPattern::kDistinctAndJoin, kLocal, kNoTier3,
     "guidance: rewrite the join as a semi-join (EXISTS / IN) or aggregate before "
     "joining",
     [](const Detection& d, const Context&) {
       return Guide(d, "DISTINCT is compensating for join fan-out; rewrite the join as a "
                       "semi-join (EXISTS / IN) against the many-side, or aggregate "
                       "before joining");
     }},
    {AntiPattern::kTooManyJoins, kLocal, kNoTier3,
     "guidance: split the query, cache stable dimensions, or denormalize read-mostly "
     "attributes",
     [](const Detection& d, const Context&) {
       return Guide(d, "split the query, cache the stable dimensions, or materialize a "
                       "pre-joined view; if the joins stem from over-normalization, "
                       "consider a modest denormalization of read-mostly attributes");
     }},
    {AntiPattern::kReadablePassword, kLocal, kNoTier3,
     "guidance: store salted adaptive hashes and compare hashes in the application "
     "layer",
     [](const Detection& d, const Context&) {
       return Guide(d, "store a salted adaptive hash (bcrypt/argon2) instead of the "
                       "password and compare hashes in the application layer");
     }},

    // --------------------------------- Data ---------------------------------
    {AntiPattern::kMissingTimezone, kWorkload, kNoTier3,
     "emits ALTER COLUMN ... TYPE TIMESTAMP WITH TIME ZONE",
     [](const Detection& d, const Context&) {
       if (d.column.empty()) {
         return Guide(d, "store date-times in '" + d.table + "' with explicit timezones");
       }
       return Emit(d,
                   {"ALTER TABLE " + d.table + " ALTER COLUMN " + d.column +
                    " TYPE TIMESTAMP WITH TIME ZONE;"},
                   "timestamps without a zone are ambiguous the moment the application "
                   "crosses regions or DST");
     }},
    {AntiPattern::kIncorrectDataType, kWorkload, kNoTier3,
     "emits ALTER COLUMN to the type the sampled values actually are (INTEGER / "
     "NUMERIC / TIMESTAMP WITH TIME ZONE)",
     [](const Detection& d, const Context& context) {
       const ColumnStats* stats = StatsFor(context, d);
       std::string target = "NUMERIC(12, 2)";
       bool temporal = stats != nullptr &&
                       stats->date_string_fraction > stats->numeric_string_fraction;
       if (temporal) {
         target = "TIMESTAMP WITH TIME ZONE";
       } else if (stats != nullptr && stats->numeric_string_fraction >= 0.9) {
         // All-integer strings become INTEGER.
         target = "INTEGER";
       }
       return Emit(d,
                   {"ALTER TABLE " + d.table + " ALTER COLUMN " + d.column + " TYPE " +
                    target + ";"},
                   std::string("the sampled values are uniformly ") +
                       (temporal ? "temporal" : "numeric") +
                       "; typed storage is smaller, ordered, and index-friendly");
     }},
    {AntiPattern::kDenormalizedTable, kLocal, kNoTier3,
     "guidance plus sketch DDL extracting the dependent pair into a dimension table",
     [](const Detection& d, const Context&) {
       return Guide(d,
                    "extract the functionally-dependent pair into a dimension table and "
                    "reference it by id; duplicates currently amplify storage and can "
                    "drift",
                    "CREATE TABLE " + d.column + "_dim (id SERIAL PRIMARY KEY, " +
                        d.column + " VARCHAR(64) UNIQUE);");
     }},
    {AntiPattern::kInformationDuplication, kLocal, kNoTier3,
     "guidance: drop the derived column and compute it at query time",
     [](const Detection& d, const Context&) {
       return Guide(d, "drop derived column '" + d.column +
                           "' and compute it at query time (or in a view); stored "
                           "derivations go stale when their sources change");
     }},
    {AntiPattern::kRedundantColumn, kWorkload, kNoTier3,
     "emits ALTER TABLE ... DROP COLUMN, listing the impacted workload queries "
     "(Algorithm 4's I set)",
     [](const Detection& d, const Context& context) {
       Fix fix = Emit(d, {"ALTER TABLE " + d.table + " DROP COLUMN " + d.column + ";"},
                      "the column stores no information (all NULL or one constant); "
                      "dropping it shrinks every row");
       fix.impacted_queries = ImpactedQueries(context, d.table, d.query);
       return fix;
     }},
    {AntiPattern::kNoDomainConstraint, kWorkload, kNoTier3,
     "emits ADD CONSTRAINT ... CHECK matching the observed value range",
     [](const Detection& d, const Context& context) {
       const ColumnStats* stats = StatsFor(context, d);
       std::string lo = stats != nullptr && stats->min ? stats->min->ToDisplay() : "0";
       std::string hi = stats != nullptr && stats->max ? stats->max->ToDisplay() : "100";
       return Emit(d,
                   {"ALTER TABLE " + d.table + " ADD CONSTRAINT chk_" +
                    ToLower(d.column) + " CHECK (" + d.column + " BETWEEN " + lo +
                    " AND " + hi + ");"},
                   "added a CHECK matching the observed value range so out-of-range "
                   "writes fail loudly");
     }},
};

constexpr bool InAntiPatternOrder() {
  for (int t = 0; t < kAntiPatternCount; ++t) {
    if (kFixers[t].type != static_cast<AntiPattern>(t)) return false;
  }
  return true;
}
static_assert(sizeof(kFixers) / sizeof(kFixers[0]) == kAntiPatternCount,
              "fixer table out of sync with the AntiPattern enum");
static_assert(InAntiPatternOrder(), "fixer table rows must follow AntiPattern order");

/// The Fixer face of one table row.
class BuiltinFixer final : public Fixer {
 public:
  explicit BuiltinFixer(const FixerRow& row) : row_(row) {}

  AntiPattern type() const override { return row_.type; }
  QueryRuleScope fix_scope() const override { return row_.scope; }
  EquivalenceContract equivalence() const override { return row_.contract; }
  Fix Propose(const Detection& d, const Context& context) const override {
    return row_.propose(d, context);
  }

 private:
  const FixerRow& row_;
};

}  // namespace

std::vector<std::unique_ptr<Fixer>> MakeBuiltinFixers() {
  std::vector<std::unique_ptr<Fixer>> fixers;
  for (const FixerRow& row : kFixers) {
    fixers.push_back(std::make_unique<BuiltinFixer>(row));
  }
  return fixers;
}

const char* FixerContract(AntiPattern type) {
  int t = static_cast<int>(type);
  return t >= 0 && t < kAntiPatternCount ? kFixers[t].text
                                         : "guidance tailored to the detection";
}

}  // namespace sqlcheck
