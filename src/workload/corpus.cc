#include "workload/corpus.h"

#include <map>
#include <set>

#include "common/random.h"
#include "common/strings.h"

namespace sqlcheck::workload {

std::vector<LabeledStatement> Corpus::AllStatements() const {
  std::vector<LabeledStatement> out;
  for (const auto& repo : repos) {
    out.insert(out.end(), repo.statements.begin(), repo.statements.end());
  }
  return out;
}

size_t Corpus::StatementCount() const {
  size_t n = 0;
  for (const auto& repo : repos) n += repo.statements.size();
  return n;
}

namespace {

const std::vector<std::string>& Nouns() {
  static const std::vector<std::string>* kNouns = new std::vector<std::string>{
      "users",    "orders",   "products", "invoices", "tickets",  "articles",
      "comments", "payments", "sessions", "events",   "accounts", "shipments",
      "reviews",  "tenants",  "projects", "tasks",    "messages", "customers",
  };
  return *kNouns;
}

const std::vector<std::string>& Attrs() {
  static const std::vector<std::string>* kAttrs = new std::vector<std::string>{
      "name",  "title",  "status", "amount", "quantity", "email",
      "phone", "city",   "state",  "zip",    "notes",    "created_at",
      "kind",  "weight", "height", "color",  "vendor",   "category",
  };
  return *kAttrs;
}

/// Builder for one repository's source file + labels.
class RepoBuilder {
 public:
  RepoBuilder(std::string name, Rng* rng) : name_(std::move(name)), rng_(rng) {
    source_ = "# " + name_ + " — data access layer\nimport db\n\n";
  }

  /// Appends a statement with its truth labels, embedding it in host code.
  void Add(std::string sql, std::vector<AntiPattern> truth) {
    source_ += "db.execute(\"" + sql + "\")\n";
    LabeledStatement labeled;
    labeled.sql = std::move(sql);
    labeled.truth = std::move(truth);
    statements_.push_back(std::move(labeled));
  }

  CorpusRepo Finish() {
    CorpusRepo repo;
    repo.name = name_;
    repo.source = std::move(source_);
    repo.statements = std::move(statements_);
    return repo;
  }

  Rng& rng() { return *rng_; }

 private:
  std::string name_;
  Rng* rng_;
  std::string source_;
  std::vector<LabeledStatement> statements_;
};

/// Emits one table's schema with randomized AP seeding; returns the chosen
/// table name and remembers per-table facts for the DML phase.
struct TableInfo {
  std::string name;
  std::string pk;             // "" => no PK seeded (an AP)
  bool has_mva_column = false;
  std::string mva_column;
  bool indexed_status = false;
};

TableInfo EmitSchema(RepoBuilder& repo, const std::string& base, const std::string& noun,
                     bool force_plain) {
  Rng& rng = repo.rng();
  TableInfo info;
  info.name = noun;

  std::vector<AntiPattern> truth;
  std::string cols;

  // Primary key seeding: none (AP) / generic id (AP) / descriptive (clean).
  int pk_style = force_plain ? 2 : static_cast<int>(rng.NextBelow(4));
  if (pk_style == 0) {
    truth.push_back(AntiPattern::kNoPrimaryKey);
    cols += base.substr(0, base.size() - 1) + "_code VARCHAR(16)";
  } else if (pk_style == 1) {
    truth.push_back(AntiPattern::kGenericPrimaryKey);
    cols += "id INTEGER PRIMARY KEY";
    info.pk = "id";
  } else {
    info.pk = base.substr(0, base.size() - 1) + "_id";
    cols += info.pk + " INTEGER PRIMARY KEY";
  }

  // A few ordinary attributes.
  int attr_count = static_cast<int>(rng.NextInRange(2, 5));
  std::set<std::string> used;
  for (int i = 0; i < attr_count; ++i) {
    const std::string& attr = rng.Choice(Attrs());
    if (!used.insert(attr).second) continue;
    cols += ", " + attr + " VARCHAR(40)";
  }

  // Optional AP columns.
  if (!force_plain && rng.NextBool(0.18)) {
    cols += ", price FLOAT";
    truth.push_back(AntiPattern::kRoundingErrors);
  }
  if (!force_plain && rng.NextBool(0.10)) {
    cols += ", level ENUM('low', 'mid', 'high')";
    truth.push_back(AntiPattern::kEnumeratedTypes);
  }
  if (!force_plain && rng.NextBool(0.12)) {
    info.has_mva_column = true;
    info.mva_column = "tag_ids";
    cols += ", tag_ids TEXT";
    truth.push_back(AntiPattern::kMultiValuedAttribute);
  }
  if (!force_plain && rng.NextBool(0.06)) {
    cols += ", password VARCHAR(64)";
    truth.push_back(AntiPattern::kReadablePassword);
  }
  if (!force_plain && rng.NextBool(0.06)) {
    cols += ", attachment_path VARCHAR(255)";
    truth.push_back(AntiPattern::kExternalDataStorage);
  }
  if (!force_plain && rng.NextBool(0.08)) {
    cols += ", updated_at TIMESTAMP";
    truth.push_back(AntiPattern::kMissingTimezone);
  }
  if (!force_plain && rng.NextBool(0.07)) {
    cols += ", extra1 VARCHAR(20), extra2 VARCHAR(20), extra3 VARCHAR(20)";
    truth.push_back(AntiPattern::kDataInMetadata);
  }
  if (!force_plain && rng.NextBool(0.06) && !info.pk.empty()) {
    cols += ", parent_" + info.pk + " INTEGER REFERENCES " + noun + " (" + info.pk + ")";
    truth.push_back(AntiPattern::kAdjacencyList);
  }
  if (!force_plain && rng.NextBool(0.10)) {
    // God table: pad to 12+ columns (letter suffixes, so the numbered-series
    // Data-in-Metadata rule stays quiet — that is a different AP).
    for (int i = 0; i < 9; ++i) {
      cols += ", aux_" + rng.NextWord(4, 7) + "_" + std::string(1, static_cast<char>('a' + i)) +
              " VARCHAR(10)";
    }
    truth.push_back(AntiPattern::kGodTable);
  }

  repo.Add("CREATE TABLE " + noun + " (" + cols + ")", std::move(truth));
  return info;
}

void EmitDml(RepoBuilder& repo, const TableInfo& table) {
  Rng& rng = repo.rng();

  // Wildcard select (AP) or explicit select (clean).
  if (rng.NextBool(0.55)) {
    repo.Add("SELECT * FROM " + table.name, {AntiPattern::kColumnWildcard});
  } else {
    repo.Add("SELECT name, status FROM " + table.name, {});
  }

  // Insert: implicit columns (AP) vs explicit (clean).
  if (rng.NextBool(0.6)) {
    repo.Add("INSERT INTO " + table.name + " VALUES (1, 'a', 'b')",
             {AntiPattern::kImplicitColumns});
  } else {
    repo.Add("INSERT INTO " + table.name + " (name, status) VALUES ('a', 'open')", {});
  }

  // Multi-valued attribute queries in several idioms. Idiom 3 is the §4.1
  // "Limitation": the packed column is fetched whole and split in application
  // code — a true AP that NO query rule can see (false negative for both
  // sqlcheck and dbdeo; only data analysis would catch it).
  if (table.has_mva_column) {
    switch (rng.NextBelow(4)) {
      case 0:
        repo.Add("SELECT * FROM " + table.name + " WHERE " + table.mva_column +
                     " LIKE '%,42,%'",
                 {AntiPattern::kMultiValuedAttribute, AntiPattern::kColumnWildcard,
                  AntiPattern::kPatternMatching});
        break;
      case 1:
        repo.Add("SELECT name FROM " + table.name + " WHERE " + table.mva_column +
                     " REGEXP '[[:<:]]42[[:>:]]'",
                 {AntiPattern::kMultiValuedAttribute, AntiPattern::kPatternMatching});
        break;
      case 2:
        repo.Add("UPDATE " + table.name + " SET " + table.mva_column + " = REPLACE(" +
                     table.mva_column + ", ',42', '') WHERE " + table.mva_column +
                     " LIKE '%42%'",
                 {AntiPattern::kMultiValuedAttribute, AntiPattern::kPatternMatching});
        break;
      default:
        repo.Add("SELECT " + table.mva_column + " FROM " + table.name +
                     " WHERE status = 'open'",
                 {AntiPattern::kMultiValuedAttribute});
        break;
    }
  }

  // Pattern matching AP: leading wildcard.
  if (rng.NextBool(0.25)) {
    repo.Add("SELECT name FROM " + table.name + " WHERE name LIKE '%son'",
             {AntiPattern::kPatternMatching});
  }
  // dbdeo FP bait: prefix LIKE is index-friendly — not an AP.
  if (rng.NextBool(0.25)) {
    repo.Add("SELECT name FROM " + table.name + " WHERE name LIKE 'jo%'", {});
  }
  // sqlcheck-intra FP bait: prose columns whose delimiters are punctuation,
  // not value separators. The intra-only MVA regex fires here; the
  // inter-query prose-name check suppresses it (§4.1 "Limitation").
  if (rng.NextBool(0.45)) {
    repo.Add("SELECT * FROM " + table.name + " WHERE notes LIKE '%,%'",
             {AntiPattern::kColumnWildcard, AntiPattern::kPatternMatching});
  }
  if (rng.NextBool(0.3)) {
    repo.Add("SELECT name FROM " + table.name + " WHERE address LIKE '%, %'",
             {AntiPattern::kPatternMatching});
  }

  // Ordering by RAND.
  if (rng.NextBool(0.04)) {
    repo.Add("SELECT name FROM " + table.name + " ORDER BY RAND() LIMIT 1",
             {AntiPattern::kOrderingByRand});
  }

  // Concatenate nulls.
  if (rng.NextBool(0.06)) {
    repo.Add("SELECT name || ' - ' || notes FROM " + table.name,
             {AntiPattern::kConcatenateNulls});
  }

  // Filtered select; when the repo also creates an index on the column this
  // is clean — dbdeo still flags it (Index Underuse FP).
  if (!table.pk.empty() && rng.NextBool(0.5)) {
    bool indexed = rng.NextBool(0.5);
    if (indexed) {
      repo.Add("CREATE INDEX idx_" + table.name + "_status ON " + table.name + " (status)",
               {});
      repo.Add("SELECT name FROM " + table.name + " WHERE status = 'open'", {});
    } else {
      repo.Add("SELECT name FROM " + table.name + " WHERE status = 'open'",
               {AntiPattern::kIndexUnderuse});
    }
  }
}

void EmitRepoExtras(RepoBuilder& repo, const std::vector<TableInfo>& tables) {
  Rng& rng = repo.rng();

  // Join without FK between the first two tables (No Foreign Key AP: neither
  // CREATE TABLE declared it, and here is the JOIN that needs it).
  if (tables.size() >= 2 && !tables[0].pk.empty() && rng.NextBool(0.5)) {
    repo.Add("SELECT a.name FROM " + tables[0].name + " a JOIN " + tables[1].name +
                 " b ON a." + tables[0].pk + " = b." + tables[0].pk,
             {AntiPattern::kNoForeignKey});
  }

  // DISTINCT + JOIN.
  if (tables.size() >= 2 && rng.NextBool(0.05)) {
    repo.Add("SELECT DISTINCT a.name FROM " + tables[0].name + " a JOIN " +
                 tables[1].name + " b ON a.name = b.name",
             {AntiPattern::kDistinctAndJoin,
              AntiPattern::kNoForeignKey});
  }

  // Too many joins (6-way chain).
  if (rng.NextBool(0.03)) {
    std::string join_sql = "SELECT t0.name FROM " + tables[0].name + " t0";
    std::vector<AntiPattern> truth{AntiPattern::kTooManyJoins};
    for (int i = 1; i <= 5; ++i) {
      join_sql += " JOIN " + tables[0].name + " t" + std::to_string(i) + " ON t" +
                  std::to_string(i - 1) + ".name = t" + std::to_string(i) + ".name";
    }
    // Note: t0..t5 aliases also bait dbdeo's numbered-identifier regex
    // (Data in Metadata FP).
    repo.Add(join_sql, std::move(truth));
  }

  // Clone tables: a real clone family...
  if (rng.NextBool(0.12)) {
    std::string base = rng.Choice(Nouns());
    repo.Add("CREATE TABLE " + base + "_2019 (entry_id INTEGER PRIMARY KEY, v VARCHAR(10))",
             {AntiPattern::kCloneTable});
    repo.Add("CREATE TABLE " + base + "_2020 (entry_id INTEGER PRIMARY KEY, v VARCHAR(10))",
             {AntiPattern::kCloneTable});
  }
  // ...and a lone numeric-suffix table (dbdeo FP bait: no sibling exists).
  if (rng.NextBool(0.12)) {
    repo.Add("CREATE TABLE snapshot_7 (snap_id INTEGER PRIMARY KEY, blob TEXT)", {});
  }

  // dbdeo FP bait: identifier containing 'enum' / literal containing 'float'.
  if (rng.NextBool(0.15)) {
    repo.Add("SELECT enumeration_state FROM " + tables[0].name +
                 " WHERE kind = 'floaty'",
             {});
  }

  // Index overuse: several single-column indexes on one table while queries
  // only ever filter both columns together.
  if (rng.NextBool(0.08) && !tables[0].pk.empty()) {
    repo.Add("CREATE INDEX idx_" + tables[0].name + "_a ON " + tables[0].name +
                 " (city, state)",
             {});
    repo.Add("CREATE INDEX idx_" + tables[0].name + "_b ON " + tables[0].name + " (city)",
             {AntiPattern::kIndexOveruse});
    repo.Add("SELECT name FROM " + tables[0].name +
                 " WHERE city = 'x' AND state = 'y'",
             {});
  }
}

}  // namespace

Corpus GenerateCorpus(const CorpusOptions& options) {
  Corpus corpus;
  Rng rng(options.seed);
  corpus.repos.reserve(static_cast<size_t>(options.repo_count));
  for (int r = 0; r < options.repo_count; ++r) {
    RepoBuilder builder("repo_" + std::to_string(r), &rng);
    int table_count = static_cast<int>(rng.NextInRange(2, 4));
    std::vector<TableInfo> tables;
    std::set<std::string> used;
    // Letter-coded repo suffix keeps statement texts globally unique (for
    // unambiguous ground-truth matching) without tripping numeric-suffix
    // heuristics in either detector.
    std::string repo_tag;
    for (int v = r + 1; v > 0; v /= 26) {
      repo_tag.push_back(static_cast<char>('a' + v % 26));
    }
    for (int t = 0; t < table_count; ++t) {
      std::string base = rng.Choice(Nouns());
      std::string noun = base + "_" + repo_tag;
      if (!used.insert(noun).second) continue;
      tables.push_back(EmitSchema(builder, base, noun, /*force_plain=*/t == 1));
    }
    for (const auto& table : tables) EmitDml(builder, table);
    if (!tables.empty()) EmitRepoExtras(builder, tables);
    corpus.repos.push_back(builder.Finish());
  }
  return corpus;
}

std::map<AntiPattern, DetectionScore> ScoreDetections(
    const Corpus& corpus, const std::vector<Detection>& detections,
    const std::vector<AntiPattern>& types) {
  std::set<AntiPattern> scoring(types.begin(), types.end());
  auto in_scope = [&](AntiPattern t) { return scoring.empty() || scoring.count(t) > 0; };

  // Truth and detection sets keyed by (sql, type).
  std::map<std::string, std::set<AntiPattern>> truth;
  for (const auto& repo : corpus.repos) {
    for (const auto& stmt : repo.statements) {
      for (AntiPattern t : stmt.truth) {
        if (in_scope(t)) truth[stmt.sql].insert(t);
      }
    }
  }
  std::map<std::string, std::set<AntiPattern>> found;
  for (const auto& d : detections) {
    if (in_scope(d.type) && !d.query.empty()) found[d.query].insert(d.type);
  }

  std::map<AntiPattern, DetectionScore> scores;
  for (const auto& repo : corpus.repos) {
    for (const auto& stmt : repo.statements) {
      const auto& detected = found[stmt.sql];
      std::set<AntiPattern> labels(stmt.truth.begin(), stmt.truth.end());
      for (AntiPattern t : detected) {
        if (!in_scope(t)) continue;
        if (labels.count(t) > 0) {
          ++scores[t].true_positives;
        } else {
          ++scores[t].false_positives;
        }
      }
      for (AntiPattern t : labels) {
        if (!in_scope(t)) continue;
        if (detected.count(t) == 0) ++scores[t].false_negatives;
      }
    }
  }
  return scores;
}

}  // namespace sqlcheck::workload
