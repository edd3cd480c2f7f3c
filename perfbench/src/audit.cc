// audit_db: data analysis plus verified fixes. Databases come from the
// in-repo generators (the GlobaLeaks anti-pattern deployment and Kaggle
// Table-6 specs); each is attached to a fresh SqlCheck together with a
// seeded, fix-heavy query log over its own schema and reported with Tier-3
// verification on. A fresh session per database per rep keeps the verify
// memo cold, so every rep pays for its differential executions.
#include <memory>
#include <random>

#include "core/emit.h"
#include "core/sqlcheck.h"
#include "trace.h"
#include "workload/globaleaks.h"
#include "workload/kaggle.h"
#include "workloads.h"

namespace perfbench {

using namespace sqlcheck;

namespace {

/// Distinct statements drawn per database, and log length drawn from them.
constexpr size_t kShapes = 12;
constexpr size_t kLogLength = 32;

struct AuditInput {
  std::unique_ptr<Database> db;
  std::string log;
  size_t statements = 0;
};

std::string Literal(const ColumnSchema& column, std::mt19937_64& rng) {
  const DataType& type = column.type;
  if (type.IsIntegerLike()) return std::to_string(rng() % 100);
  if (type.IsNumeric()) return std::to_string(rng() % 100) + ".5";
  if (type.IsTextual()) return "'v" + std::to_string(rng() % 50) + "'";
  if (type.IsTemporal()) return "'2020-01-0" + std::to_string(1 + rng() % 9) + "'";
  if (type.id == TypeId::kBoolean) return rng() % 2 ? "TRUE" : "FALSE";
  return "NULL";
}

/// One statement over `db`'s schema, biased toward shapes whose fixes are
/// rewrites with an executable equivalence contract: wildcards, implicit
/// INSERT columns, leading-wildcard LIKE, ORDER BY RAND(), NULL-swallowing
/// concatenation, DISTINCT over a join.
std::string Shape(const Database& db, std::mt19937_64& rng) {
  std::vector<const Table*> tables = db.Tables();
  const TableSchema& t = tables[rng() % tables.size()]->schema();
  const std::vector<ColumnSchema>& cols = t.columns;
  const ColumnSchema& c = cols[rng() % cols.size()];
  std::vector<const ColumnSchema*> text;
  for (const ColumnSchema& col : cols) {
    if (col.type.IsTextual()) text.push_back(&col);
  }
  switch (rng() % 6) {
    case 0:
      return "SELECT * FROM " + t.name + " WHERE " + c.name + " = " + Literal(c, rng);
    case 1:
      if (text.empty()) break;
      return "SELECT " + c.name + " FROM " + t.name + " WHERE " + text[0]->name +
             " LIKE '%v" + std::to_string(rng() % 50) + "'";
    case 2:
      return "SELECT * FROM " + t.name + " ORDER BY RAND() LIMIT 1";
    case 3: {
      std::string values;
      for (const ColumnSchema& col : cols) {
        values += (values.empty() ? "" : ", ") + Literal(col, rng);
      }
      return "INSERT INTO " + t.name + " VALUES (" + values + ")";
    }
    case 4:
      if (text.size() < 2) break;
      return "SELECT " + text[0]->name + " || " + text[1]->name + " FROM " + t.name;
    case 5: {
      const TableSchema& u = tables[rng() % tables.size()]->schema();
      return "SELECT DISTINCT a." + c.name + " FROM " + t.name + " a JOIN " + u.name +
             " b ON a." + cols[0].name + " = b." + u.columns[0].name;
    }
  }
  return "SELECT * FROM " + t.name + " WHERE " + c.name + " = " + Literal(c, rng);
}

std::vector<AuditInput> MakeAudit(uint64_t seed, bool tiny) {
  std::vector<AuditInput> inputs;
  auto globaleaks = std::make_unique<Database>("globaleaks");
  workload::GlobaleaksOptions scale;
  scale.tenant_count = tiny ? 4 : 40;
  scale.users_per_tenant = 10;
  scale.seed = seed;
  workload::Globaleaks::BuildWithAps(globaleaks.get(), scale);
  inputs.push_back({std::move(globaleaks), workload::Globaleaks::ApWorkloadScript(), 0});
  const auto& specs = workload::KaggleSpecs();
  for (size_t k = 0; k < (tiny ? 1 : specs.size()); ++k) {
    inputs.push_back({workload::SynthesizeKaggleDatabase(specs[k], seed + k), "", 0});
  }
  for (size_t d = 0; d < inputs.size(); ++d) {
    std::mt19937_64 rng(seed * 104729 + d);
    std::vector<std::string> shapes;
    for (size_t s = 0; s < (tiny ? 4 : kShapes); ++s) shapes.push_back(Shape(*inputs[d].db, rng));
    for (size_t i = 0; i < (tiny ? 8 : kLogLength); ++i) {
      inputs[d].log += shapes[rng() % shapes.size()] + ";\n";
    }
  }
  return inputs;
}

SqlCheckOptions AuditOptions(uint64_t seed, bool verify) {
  SqlCheckOptions options;
  options.verify_exec.mode = verify ? ExecVerifyMode::kOn : ExecVerifyMode::kOff;
  options.verify_exec.seed = seed;
  return options;
}

}  // namespace

RunResult RunAuditDb(const Config& config) {
  // Set-up builds the databases and logs and takes the reference: the same
  // audits with Tier 3 off, which must detect identically.
  std::vector<AuditInput> inputs;
  std::vector<uint64_t> expected;
  const double setup_s = TimeSetup(kSetupReps, [&] {
    inputs = MakeAudit(config.seed, config.tiny);
    expected.clear();
    if (config.trace) return;
    for (AuditInput& input : inputs) {
      SqlCheck checker(AuditOptions(config.seed, false));
      checker.AddScript(input.log);
      checker.AttachDatabase(input.db.get());
      expected.push_back(DetectionDigest(checker.Run()));
      input.statements = checker.session().statement_count();
    }
  });
  const SqlCheckOptions options = AuditOptions(config.seed, true);

  RunResult result;
  if (config.trace) {
    std::vector<Unit> units;
    for (size_t d = 0; d < inputs.size(); ++d) {
      units.push_back({inputs[d].db->name(), {inputs[d].log}, {}, {}, inputs[d].db.get()});
    }
    result.metrics = LayerMetrics(TraceUnits(units, options, config));
    result.attempted = units.size();
    return result;
  }

  if (config.inject_mismatch) expected[0] ^= 1;

  EmitOptions emit;
  emit.include_fixes = true;
  // Per rep: each database's audit latency and re-run latency.
  std::vector<std::vector<double>> audit_ms, rerun_ms;
  std::vector<double> rep_s, rates;
  size_t json_bytes = 0, statements = 0;
  auto rep = [&](bool record) {
    double busy_s = 0.0;
    size_t exec_runs = 0, rep_bytes = 0, rep_statements = 0;
    std::vector<double> audits, reruns;
    for (size_t d = 0; d < inputs.size(); ++d) {
      auto start = Clock::now();
      SqlCheck checker(options);
      checker.AddScript(inputs[d].log);
      checker.AttachDatabase(inputs[d].db.get());
      Report report = checker.Run();
      std::string json = ToJson(report, emit);
      const double secs = SecondsSince(start);

      auto again_start = Clock::now();
      Report again = checker.Run();
      reruns.push_back(SecondsSince(again_start) * 1e3);
      audits.push_back(secs * 1e3);

      Check(DetectionDigest(report) == expected[d],
            "audit_db: detections on " + inputs[d].db->name() + " changed with Tier 3 on");
      Check(again.size() == report.size(), "audit_db: re-run changed the report");
      exec_runs += checker.session().verify_stats().exec_runs;
      ++result.attempted;
      busy_s += secs;
      rep_bytes += json.size();
      rep_statements += inputs[d].statements;
    }
    Check(exec_runs > 0, "audit_db: a rep ran no Tier-3 executions");
    if (!record) return;
    audit_ms.push_back(std::move(audits));
    rerun_ms.push_back(std::move(reruns));
    rep_s.push_back(busy_s);
    rates.push_back(static_cast<double>(rep_statements) / busy_s);
    json_bytes += rep_bytes;
    statements += rep_statements;
  };
  rep(false);
  size_t reps = 0;
  RunFor(config.seconds, 4, [&] {
    PinForRep(reps++, 1);
    rep(true);
  });

  const std::vector<size_t> fast = FasterHalf(rep_s);
  const std::vector<double> latencies = Pool(audit_ms, fast);
  EndToEnd e;
  e.setup_s = setup_s;
  e.stmts_per_s = Median(Pick(rates, fast));
  e.p50_ms = Median(latencies);
  e.tail_ms = Quantile(latencies, TailQuantileFor(latencies.size()));
  e.snapshot_ms = Median(Pool(rerun_ms, fast));
  e.bytes_per_stmt = static_cast<double>(json_bytes) / static_cast<double>(statements);
  result.metrics = EndToEndMetrics(e);
  return result;
}

}  // namespace perfbench
