// Fingerprint dedup cache on a duplicate-heavy workload: 90% of the batch
// re-issues a small set of parameterized statement templates (with
// whitespace / keyword-case / comment jitter, as real query logs have), 10%
// is unique. Feeds the batch through an AnalysisSession with the dedup memo
// off and on — "ingest" is AddQuery (parse, analysis, statement-local
// rules), "detect" is Snapshot() — verifies the detection streams are
// byte-identical (every field folded into an order-sensitive digest), and
// reports the speedup. Exits nonzero on digest divergence. The speedup is
// reported, not gated. A byte-identical repeat is looked up before any lex
// or parse and shares its first occurrence's tree; a cosmetic variant
// (whitespace, keyword case, comments) is still parsed before it joins its
// group, so ingest carries work the memo cannot save.
//
//   $ ./bench_fingerprint_dedup [statement_count]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "core/session.h"
#include "rules/registry.h"

using namespace sqlcheck;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Folds every byte of every detection field into one order-sensitive hash,
/// so any reorder/substitution in the merged stream changes the digest.
uint64_t DigestDetections(const Report& report) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::string_view s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= 0xff;  // field separator
    h *= 1099511628211ull;
  };
  for (const Finding& f : report.findings) {
    const Detection& d = f.ranked.detection;
    mix(std::to_string(static_cast<int>(d.type)));
    mix(std::to_string(static_cast<int>(d.source)));
    mix(d.table);
    mix(d.column);
    mix(d.query);
    mix(d.message);
  }
  return h;
}

/// 90%-duplicate corpus: templates cycled with cosmetic jitter the canonical
/// form folds away, plus 10% literal-unique statements.
std::vector<std::string> BuildCorpus(size_t count) {
  // Statement shapes mirror the paper's web-app corpora: multi-join selects
  // with predicates and grouping, correlated subqueries, parameterized CRUD.
  static const char* kTemplates[] = {
      "SELECT * FROM users u JOIN profiles p ON u.id = p.user_id "
      "LEFT JOIN addresses a ON a.user_id = u.id "
      "WHERE u.created_at > ? AND u.status = 'active' AND u.email LIKE '%@example.com'",
      "SELECT u.id, u.name, (SELECT o.total FROM orders o WHERE o.user_id = u.id "
      "AND o.status = 'open') FROM users u WHERE u.region = ? AND u.age > ? "
      "GROUP BY u.id, u.name ORDER BY u.created_at",
      "SELECT name, password FROM users WHERE name LIKE '%smith' AND password = ?",
      "SELECT DISTINCT u.name, o.total, i.sku FROM users u "
      "JOIN orders o ON u.id = o.user_id JOIN items i ON i.order_id = o.id "
      "WHERE o.created_at BETWEEN ? AND ? AND i.price > 100",
      "INSERT INTO logs (user_id, action, detail, created_at) "
      "SELECT u.id, ?, ?, ? FROM users u WHERE u.last_seen < ?",
      "SELECT * FROM products p JOIN categories c ON p.category_id = c.id "
      "WHERE c.name IN ('a', 'b', 'c') ORDER BY RAND()",
      "SELECT a.x, b.y, c.z FROM a JOIN b ON a.id = b.a_id JOIN c ON b.id = c.b_id "
      "JOIN d ON c.id = d.c_id JOIN e ON d.id = e.d_id JOIN f ON e.id = f.e_id "
      "WHERE a.k = ? AND b.m = ? AND e.n || f.o = ?",
      "UPDATE users SET name = ?, email = ?, updated_at = ? "
      "WHERE id = ? AND status <> 'deleted'",
  };
  constexpr size_t kTemplateCount = sizeof(kTemplates) / sizeof(kTemplates[0]);

  std::vector<std::string> statements;
  statements.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (i % 10 == 9) {
      // Unique statement: a distinct literal defeats the exact-canonical key.
      statements.push_back(
          "SELECT u.name, o.total FROM users u JOIN orders o ON u.id = o.user_id "
          "WHERE o.created_at > '2020-01-01' AND o.id = " +
          std::to_string(i));
      continue;
    }
    std::string s = kTemplates[i % kTemplateCount];
    switch ((i / kTemplateCount) % 4) {
      case 1: s += "  "; break;
      case 2: s += " -- issued by app"; break;
      case 3: s.insert(0, "  "); break;
      default: break;
    }
    statements.push_back(std::move(s));
  }
  return statements;
}

struct RunResult {
  double build_ms = 0.0;
  double detect_ms = 0.0;
  size_t detections = 0;
  size_t unique = 0;
  uint64_t digest = 0;
  double total() const { return build_ms + detect_ms; }
};

RunResult RunPipeline(const std::vector<std::string>& statements, bool dedup,
                      int repeats) {
  RunResult best;
  for (int r = 0; r < repeats; ++r) {
    SqlCheckOptions options;
    options.dedup_queries = dedup;
    options.suggest_fixes = false;
    options.detector.data_analysis = false;
    AnalysisSession session(options);

    auto build_start = Clock::now();
    for (const auto& sql_text : statements) session.AddQuery(sql_text);
    double build_ms = MsSince(build_start);

    auto detect_start = Clock::now();
    Report report = session.Snapshot();
    double detect_ms = MsSince(detect_start);

    if (r == 0) {
      best.detections = report.size();
      best.unique = session.unique_count();
      best.digest = DigestDetections(report);
    }
    if (r == 0 || build_ms + detect_ms < best.total()) {
      best.build_ms = build_ms;
      best.detect_ms = detect_ms;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  size_t statement_count = 4000;
  if (argc > 1) statement_count = static_cast<size_t>(std::atoll(argv[1]));

  std::vector<std::string> statements = BuildCorpus(statement_count);
  constexpr int kRepeats = 3;

  std::printf(
      "fingerprint dedup: %zu statements (90%% duplicate templates), %zu rules\n\n",
      statements.size(), RuleRegistry::Default().size());
  std::printf("%18s %12s %12s %12s %12s %10s\n", "config", "ingest(ms)", "detect(ms)",
              "total(ms)", "detections", "unique");

  RunResult off = RunPipeline(statements, /*dedup=*/false, kRepeats);
  std::printf("%18s %12.1f %12.1f %12.1f %12zu %10zu\n", "dedup off", off.build_ms,
              off.detect_ms, off.total(), off.detections, off.unique);

  RunResult on = RunPipeline(statements, /*dedup=*/true, kRepeats);
  std::printf("%18s %12.1f %12.1f %12.1f %12zu %10zu\n", "dedup on", on.build_ms,
              on.detect_ms, on.total(), on.detections, on.unique);

  if (on.detections != off.detections || on.digest != off.digest) {
    std::printf("FAIL: detection stream diverged with dedup on "
                "(%zu vs %zu detections, digest %016llx vs %016llx)\n",
                on.detections, off.detections, static_cast<unsigned long long>(on.digest),
                static_cast<unsigned long long>(off.digest));
    return 1;
  }

  double speedup = on.total() > 0.0 ? off.total() / on.total() : 0.0;
  std::printf("\ndetection streams identical (digest %016llx)\n",
              static_cast<unsigned long long>(off.digest));
  std::printf("dedup speedup: %.2fx\n", speedup);
  return 0;
}
