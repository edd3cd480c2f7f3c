// Schema evolution: the catalog (DDL-only context) and the engine (live
// database) interpret CREATE TABLE, CREATE INDEX and ALTER TABLE through the
// same code in catalog/schema, so one script gives both the same schemas.
// Renames carry their indexes, a failing ALTER changes nothing, and a
// schema-qualified table never resolves to the bare catalog table.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/session.h"
#include "engine/executor.h"
#include "rules/rule.h"
#include "sql/parser.h"
#include "storage/database.h"

namespace sqlcheck {
namespace {

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (const auto& p : parts) out += (out.empty() ? "" : ",") + p;
  return out;
}

/// Everything the two paths must agree on, one line per fact: columns with
/// type, flags and whether a default exists, the PK, FKs, CHECK text,
/// UNIQUE constraints and the (name, columns) of non-system indexes.
std::string Describe(const TableSchema& schema, std::vector<const IndexSchema*> indexes) {
  std::string out = "table " + schema.name + "\n";
  for (const auto& c : schema.columns) {
    out += "  column " + c.name + " " + c.type.ToSql() + (c.not_null ? " not_null" : "") +
           (c.unique ? " unique" : "") + (c.auto_increment ? " auto_increment" : "") +
           (c.default_value.has_value() ? " default" : "") + "\n";
  }
  out += "  pk (" + Join(schema.primary_key) + ")\n";
  for (const auto& fk : schema.foreign_keys) {
    out += "  fk " + fk.name + " (" + Join(fk.columns) + ") -> " + fk.ref_table + "(" +
           Join(fk.ref_columns) + ")" + (fk.on_delete_cascade ? " cascade" : "") + "\n";
  }
  for (const auto& check : schema.checks) {
    out += "  check " + check.name + " " + check.expression_sql + "\n";
  }
  for (const auto& cols : schema.unique_constraints) {
    out += "  unique (" + Join(cols) + ")\n";
  }
  std::sort(indexes.begin(), indexes.end(),
            [](const IndexSchema* a, const IndexSchema* b) { return a->name < b->name; });
  for (const IndexSchema* index : indexes) {
    if (index->system) continue;
    out += "  index " + index->name + " (" + Join(index->columns) + ")\n";
  }
  return out;
}

std::string Describe(const Catalog& catalog) {
  std::string out;
  for (const TableSchema* schema : catalog.Tables()) {
    out += Describe(*schema, catalog.IndexesOnTable(schema->name));
  }
  return out;
}

/// The engine side: Database::BuildCatalog copies each table's schema and
/// index definitions, so both sides render through the same Describe.
std::string Describe(const Database& db) { return Describe(db.BuildCatalog()); }

/// One table's schema, indexes (system ones included) and rows.
std::string Snapshot(const Table& table) {
  std::string out = Describe(table.schema(), {});
  for (const auto& index : table.indexes()) {
    const IndexSchema& schema = index->schema();
    out += "  index " + schema.name + " (" + Join(schema.columns) + ") " +
           std::to_string(index->entry_count()) + " entries\n";
  }
  table.ForEachLive([&](size_t slot, const Row& row) {
    out += "  row " + std::to_string(slot) + ":";
    for (const Value& v : row) out += " " + v.ToDisplay();
    out += "\n";
  });
  return out;
}

TEST(SchemaEvolutionTest, CatalogAndEngineAgreeOnSchemas) {
  const std::vector<std::string> script = {
      "CREATE TABLE parent (id INT PRIMARY KEY, code VARCHAR(8))",
      "CREATE TABLE child (cid INT PRIMARY KEY, a INT, b INT, note VARCHAR(20))",
      "INSERT INTO parent VALUES (1, 'p')",
      "INSERT INTO child (cid, a, b, note) VALUES (1, 1, 2, 'x')",
      "ALTER TABLE child ADD COLUMN parent_id INT REFERENCES parent(id)",
      "ALTER TABLE child ADD COLUMN c INT DEFAULT 5",
      "ALTER TABLE child ADD COLUMN k SERIAL",
      "ALTER TABLE child ADD CONSTRAINT chk_b CHECK (b > 0)",
      "ALTER TABLE child ADD CONSTRAINT chk_a CHECK (a > 0)",
      "ALTER TABLE child ADD CONSTRAINT chk_ab CHECK (a < b + 100)",
      "ALTER TABLE child ADD CONSTRAINT chk_note CHECK (note <> '')",
      "ALTER TABLE child ADD CONSTRAINT uq_b_note UNIQUE (b, note)",
      "ALTER TABLE child ADD CONSTRAINT uq_b_c UNIQUE (b, c)",
      "CREATE INDEX idx_child_a ON child (a)",
      "CREATE INDEX idx_child_note ON child (note)",
      "CREATE INDEX idx_child_b_c ON child (b, c)",
      "ALTER TABLE child RENAME COLUMN a TO aa",
      "ALTER TABLE child DROP COLUMN note",
      "ALTER TABLE child DROP CONSTRAINT chk_a",
      "ALTER TABLE parent RENAME COLUMN id TO parent_key",
  };
  Catalog catalog;
  Database db;
  Executor exec(&db);
  for (const auto& text : script) {
    auto stmt = sql::ParseStatement(text);
    ASSERT_NE(stmt, nullptr) << text;
    Status applied = catalog.ApplyDdl(*stmt);
    EXPECT_TRUE(applied.ok()) << applied.message() << " for: " << text;
    auto executed = exec.Execute(*stmt);
    EXPECT_TRUE(executed.ok()) << executed.message() << " for: " << text;
  }
  const std::string engine = Describe(db);
  EXPECT_EQ(Describe(catalog), engine);
  // The script's effects, spelled out once.
  EXPECT_NE(engine.find("fk  (parent_id) -> parent(parent_key)"), std::string::npos)
      << engine;
  EXPECT_NE(engine.find("column c INTEGER default"), std::string::npos) << engine;
  EXPECT_NE(engine.find("column k SERIAL auto_increment"), std::string::npos) << engine;
  EXPECT_NE(engine.find("index idx_child_a (aa)"), std::string::npos) << engine;
  EXPECT_NE(engine.find("unique (b,c)"), std::string::npos) << engine;
  EXPECT_EQ(engine.find("note"), std::string::npos) << engine;
  EXPECT_EQ(engine.find("chk_a "), std::string::npos) << engine;
  // A CHECK follows its renamed column and goes with its dropped one.
  EXPECT_NE(engine.find("check chk_ab (aa < (b + 100))"), std::string::npos) << engine;
  EXPECT_EQ(engine.find("chk_note"), std::string::npos) << engine;
  // The engine filled the existing row with the evaluated DEFAULT, and the
  // FK still finds its parent under the renamed key.
  EXPECT_EQ(exec.ExecuteSql("SELECT c FROM child WHERE aa = 1")->Scalar().AsInt(), 5);
  EXPECT_TRUE(exec.ExecuteSql("INSERT INTO child (cid, b, parent_id) VALUES (2, 3, 1)")
                  .ok());
  EXPECT_FALSE(exec.ExecuteSql("INSERT INTO child (cid, b, parent_id) VALUES (3, 3, 9)")
                   .ok());
}

TEST(SchemaEvolutionTest, RenamedIndexSurvivesDropOfAnotherColumn) {
  Database db;
  Executor exec(&db);
  for (const char* text : {"CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT)",
                           "CREATE INDEX idx_a ON t (a)",
                           "INSERT INTO t VALUES (1, 10, 100), (2, 20, 200)",
                           "ALTER TABLE t RENAME COLUMN a TO aa",
                           "ALTER TABLE t DROP COLUMN b"}) {
    auto r = exec.ExecuteSql(text);
    ASSERT_TRUE(r.ok()) << r.message() << " for: " << text;
  }
  const Table* table = db.GetTable("t");
  ASSERT_EQ(table->schema().columns.size(), 2u);
  const Index* index = table->FindSingleColumnIndex("aa");
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->schema().name, "idx_a");
  EXPECT_EQ(index->Lookup(CompositeKey{{Value::Int(20)}}), std::vector<size_t>{1});
  auto r = exec.ExecuteSql("SELECT id FROM t WHERE aa = 20");
  ASSERT_TRUE(r.ok()) << r.message();
  EXPECT_EQ(r->Scalar().AsInt(), 2);
}

TEST(SchemaEvolutionTest, FailingAlterLeavesSchemaUnchanged) {
  Database db;
  Executor exec(&db);
  for (const char* text : {"CREATE TABLE p (id INT PRIMARY KEY)",
                           "INSERT INTO p VALUES (1)",
                           "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT)",
                           "CREATE INDEX idx_a ON t (a)",
                           "INSERT INTO t VALUES (1, 10, 100), (2, 20, 200)",
                           "ALTER TABLE t RENAME COLUMN a TO aa"}) {
    auto r = exec.ExecuteSql(text);
    ASSERT_TRUE(r.ok()) << r.message() << " for: " << text;
  }
  const Table* table = db.GetTable("t");
  const std::string before = Snapshot(*table);
  for (const char* text : {
           "ALTER TABLE t ADD COLUMN c INT NOT NULL",
           "ALTER TABLE t ADD COLUMN c INT DEFAULT 0 CHECK (c > 0)",
           "ALTER TABLE t ADD COLUMN c INT DEFAULT 7 REFERENCES p(id)",
           "ALTER TABLE t ADD COLUMN aa INT",
           "ALTER TABLE t ADD CONSTRAINT chk CHECK (b < 0)",
           "ALTER TABLE t ADD CONSTRAINT fk FOREIGN KEY (b) REFERENCES p(id)",
           "ALTER TABLE t ADD PRIMARY KEY (nope)",
           "ALTER TABLE t DROP COLUMN nope",
           "ALTER TABLE t DROP CONSTRAINT nope",
           "ALTER TABLE t ALTER COLUMN nope TYPE BIGINT",
           "ALTER TABLE t RENAME COLUMN nope TO x",
           "ALTER TABLE t RENAME COLUMN aa TO b",
           "ALTER TABLE t RENAME TO u",
       }) {
    EXPECT_FALSE(exec.ExecuteSql(text).ok()) << text;
    EXPECT_EQ(Snapshot(*table), before) << text;
  }
}

TEST(SchemaEvolutionTest, DropOfAReferencedColumnIsRefused) {
  // c's FK references p.code, so dropping code would leave it dangling and
  // refuse every later non-NULL insert into c. Both paths refuse the DROP
  // (as PostgreSQL does without CASCADE) and leave every schema unchanged.
  const std::vector<std::string> script = {
      "CREATE TABLE p (id INT PRIMARY KEY, code INT UNIQUE)",
      "CREATE TABLE c (pcode INT REFERENCES p(code), pid INT REFERENCES p)",
      "INSERT INTO p VALUES (1, 10)",
  };
  Catalog catalog;
  Database db;
  Executor exec(&db);
  for (const auto& text : script) {
    auto stmt = sql::ParseStatement(text);
    EXPECT_TRUE(catalog.ApplyDdl(*stmt).ok()) << text;
    EXPECT_TRUE(exec.Execute(*stmt).ok()) << text;
  }
  const std::string catalog_before = Describe(catalog);
  const std::string engine_before = Describe(db);
  const std::string rows_before = Snapshot(*db.GetTable("p"));
  // The second FK references p's primary key implicitly.
  for (const char* text :
       {"ALTER TABLE p DROP COLUMN code", "ALTER TABLE p DROP COLUMN id"}) {
    auto stmt = sql::ParseStatement(text);
    Status refused = catalog.ApplyDdl(*stmt);
    EXPECT_FALSE(refused.ok()) << text;
    EXPECT_NE(refused.message().find("FOREIGN KEY c -> p"), std::string::npos)
        << refused.message();
    EXPECT_FALSE(exec.Execute(*stmt).ok()) << text;
    EXPECT_EQ(Describe(catalog), catalog_before) << text;
    EXPECT_EQ(Describe(db), engine_before) << text;
    EXPECT_EQ(Snapshot(*db.GetTable("p")), rows_before) << text;
  }
  auto inserted = exec.ExecuteSql("INSERT INTO c VALUES (10, 1)");
  EXPECT_TRUE(inserted.ok()) << inserted.message();
  // The FK's own column may still go, and its FK with it.
  EXPECT_TRUE(exec.ExecuteSql("ALTER TABLE c DROP COLUMN pcode").ok());
  EXPECT_TRUE(exec.ExecuteSql("ALTER TABLE p DROP COLUMN code").ok());
}

/// The report's finding counts by rule name, for readable failures.
std::string Counts(const std::vector<std::string>& statements) {
  AnalysisSession session;
  for (const auto& s : statements) session.AddQuery(s);
  Report report = session.Snapshot();
  std::string out;
  for (const auto& [type, count] : report.CountsByType()) {
    out += std::string(ApName(type)) + " x" + std::to_string(count) + "\n";
  }
  for (const Finding& f : report.findings) {
    for (const auto& stmt : f.fix.statements) {
      if (stmt.find("CREATE INDEX") != std::string::npos) out += "fix: " + stmt + "\n";
    }
  }
  return out;
}

TEST(SchemaEvolutionTest, RenamesKeepTheirIndexes) {
  const std::string control = Counts({"CREATE TABLE t2 (id INT PRIMARY KEY, a INT)",
                                      "CREATE INDEX idx_t2_a ON t2 (a)",
                                      "SELECT id FROM t2 WHERE a = 1",
                                      "SELECT id FROM t2 WHERE a = 2"});
  EXPECT_EQ(control, "Generic Primary Key x1\n");
  EXPECT_EQ(Counts({"CREATE TABLE t (id INT PRIMARY KEY, a INT)",
                    "CREATE INDEX idx_t_a ON t (a)", "ALTER TABLE t RENAME TO t2",
                    "SELECT id FROM t2 WHERE a = 1", "SELECT id FROM t2 WHERE a = 2"}),
            control);
  EXPECT_EQ(Counts({"CREATE TABLE t (id INT PRIMARY KEY, a INT)",
                    "CREATE INDEX idx_t_a ON t (a)",
                    "ALTER TABLE t RENAME COLUMN a TO aa",
                    "SELECT id FROM t WHERE aa = 1", "SELECT id FROM t WHERE aa = 2"}),
            control);
}

TEST(SchemaEvolutionTest, QualifiedTableDoesNotResolveToTheBareTable) {
  const char* ddl = "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20))";
  EXPECT_EQ(Counts({ddl, "SELECT id FROM archive.t WHERE name = 'a'"}),
            "Generic Primary Key x1\n");
  EXPECT_EQ(Counts({ddl, "SELECT id FROM t WHERE name = 'a'"}),
            "Generic Primary Key x1\nIndex Underuse x1\n"
            "fix: CREATE INDEX idx_t_name ON t (name);\n");
}

}  // namespace
}  // namespace sqlcheck
