// Structured report emitters: the JSON shape is golden-file tested byte for
// byte (determinism is part of the contract — CI diffs, dashboards, and
// code-scanning uploads all depend on it), and the SARIF rendering is pinned
// to the 2.1.0 required-key set plus the full 27-rule driver catalog. FNV
// digests pin every emitter's bytes over whole workloads on both block-scan
// tiers, as does the table-3 detection stream with fixes off and on, and the
// formatting primitives (scores, escaping) are checked against printf and
// the server's JSON parser.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <random>
#include <string>

#include "core/emit.h"
#include "core/sqlcheck.h"
#include "fix/fix_engine.h"
#include "server/wire.h"
#include "sql/block_scan.h"
#include "workload/corpus.h"

namespace sqlcheck {
namespace {

size_t CountOccurrences(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

uint64_t Fnv(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Byte-identity oracle: FNV digests of every emitter over two workloads,
// pinned so a rewrite of the emitters cannot change a single output byte.
// Each digest must hold on both block-scan tiers.
// ---------------------------------------------------------------------------

struct EmitterDigests {
  uint64_t json = 0;
  uint64_t json_fixes = 0;
  uint64_t sarif_fixes = 0;
  uint64_t lines = 0;  ///< FindingToJsonLine over every finding, concatenated.
};

EmitterDigests DigestEmitters(const std::string& script) {
  SqlCheck checker;
  checker.AddScript(script);
  const Report report = checker.Run();
  EmitOptions fixes;
  fixes.include_fixes = true;
  EmitOptions sarif = fixes;
  sarif.artifact_uri = "corpus/queries.sql";
  sarif.artifact_content = script;
  std::string lines;
  for (size_t i = 0; i < report.findings.size(); ++i) {
    lines += FindingToJsonLine(report.findings[i], i + 1, /*include_fixes=*/i % 2 == 0);
    lines += '\n';
  }
  return {Fnv(ToJson(report)), Fnv(ToJson(report, fixes)), Fnv(ToSarif(report, sarif)),
          Fnv(lines)};
}

std::string JoinStatements(const workload::Corpus& corpus) {
  std::string script;
  for (const workload::LabeledStatement& s : corpus.AllStatements()) {
    script += s.sql;
    script += ";\n";
  }
  return script;
}

/// Runs `check` once per block-scan tier, restoring the ambient mode.
template <typename Fn>
void OnBothTiers(Fn&& check) {
  namespace bs = sql::blockscan;
  const bool was = bs::ForceScalar();
  for (bool scalar : {false, true}) {
    SCOPED_TRACE(scalar ? "scalar tier" : "fast tier");
    bs::SetForceScalarForTest(scalar);
    check();
  }
  bs::SetForceScalarForTest(was);
}

void ExpectDigests(const std::string& script, const EmitterDigests& pinned) {
  OnBothTiers([&] {
    const EmitterDigests got = DigestEmitters(script);
    EXPECT_EQ(got.json, pinned.json);
    EXPECT_EQ(got.json_fixes, pinned.json_fixes);
    EXPECT_EQ(got.sarif_fixes, pinned.sarif_fixes);
    EXPECT_EQ(got.lines, pinned.lines);
  });
}

TEST(EmitDigestTest, Table3CorpusEmitsPinnedBytes) {
  ExpectDigests(JoinStatements(workload::GenerateCorpus()),
                {6906737453966585131ull, 299226862196765390ull, 9557614672603912972ull,
                 2404600639830130697ull});
}

/// FNV-1a over every detection field of the report in order, each field
/// closed by a 0xff byte.
uint64_t DigestDetections(const Report& report) {
  std::string fields;
  auto add = [&fields](const std::string& field) {
    fields += field;
    fields += '\xff';
  };
  for (const Finding& f : report.findings) {
    const Detection& d = f.ranked.detection;
    add(std::to_string(static_cast<int>(d.type)));
    add(std::to_string(static_cast<int>(d.source)));
    add(d.table);
    add(d.column);
    add(d.query);
    add(d.message);
  }
  return Fnv(fields);
}

TEST(EmitDigestTest, Table3DetectionStreamMatchesPinWithFixesOffAndOn) {
  // The 200-repository table-3 corpus, one AddQuery per statement. The pin
  // predates the zero-copy frontend; fix suggestion must not move it.
  const workload::Corpus corpus = workload::GenerateCorpus();
  OnBothTiers([&] {
    for (bool fixes : {false, true}) {
      SqlCheckOptions options;
      options.suggest_fixes = fixes;
      SqlCheck checker(options);
      for (const workload::LabeledStatement& s : corpus.AllStatements()) {
        checker.AddQuery(s.sql);
      }
      EXPECT_EQ(DigestDetections(checker.Run()), 3179248164023172358ull)
          << (fixes ? "fixes on" : "fixes off");
    }
  });
}

TEST(EmitDigestTest, SeededWorkloadWithHostileStringsEmitsPinnedBytes) {
  workload::CorpusOptions options;
  options.repo_count = 12;
  options.seed = 20200614;
  std::string script = JoinStatements(workload::GenerateCorpus(options));
  // Literals that need escaping, long enough to straddle 16-byte blocks:
  // quotes, backslashes, every control byte class, and multi-byte UTF-8.
  script +=
      "SELECT * FROM users WHERE note = 'say \"hi\" to C:\\\\temp\\\\dir "
      "and \"bye\"';\n"
      "SELECT * FROM logs WHERE line LIKE '%tab\there\nnew\rline\x01\x1f%';\n"
      "SELECT * FROM t WHERE name = 'h\xC3\xA9llo w\xC3\xB6rld \xE2\x80\x93 "
      "\xF0\x9F\x8E\x89 \"quoted\" \\ end';\n"
      "INSERT INTO audit VALUES (1, '\b\f\x7f\x80 ctl');\n";
  // The hostile literals really reach the emitted bytes.
  SqlCheck checker;
  checker.AddScript(script);
  const std::string json = checker.Run().ToJson();
  EXPECT_NE(json.find("say \\\"hi\\\" to C:\\\\\\\\temp"), std::string::npos);
  EXPECT_NE(json.find("tab\\there\\nnew\\rline\\u0001\\u001f"), std::string::npos);
  EXPECT_NE(json.find("h\xC3\xA9llo w\xC3\xB6rld"), std::string::npos);
  EXPECT_NE(json.find("\\b\\f\x7f\x80 ctl"), std::string::npos);
  ExpectDigests(script, {12410252004881530037ull, 15535089028909745253ull,
                         2034970502029598642ull, 17471427963980135767ull});
}

// ---------------------------------------------------------------------------
// Formatting primitives: scores through to_chars, strings through the
// block-scan escaper.
// ---------------------------------------------------------------------------

std::string Printf6g(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

std::string Score(double value) {
  std::string out;
  AppendScore(&out, value);
  return out;
}

TEST(EmitFormatTest, ScoreMatchesPrintfPrecision6g) {
  for (double v : {0.0, 1.0, 1e-5, 1e-7, 0.5, 0.212, 0.1234565, 0.9999995, 123456.5}) {
    EXPECT_EQ(Score(v), Printf6g(v)) << v;
  }
  // Just below every power of ten: where %g switches between fixed and
  // exponent notation and where rounding carries into a new digit.
  for (int exp = -12; exp <= 12; ++exp) {
    const double power = std::pow(10.0, exp);
    for (double v : {power, std::nextafter(power, 0.0), power * (1 - 1e-7),
                     power * (1 - 4e-7), power * (1 - 6e-7)}) {
      EXPECT_EQ(Score(v), Printf6g(v)) << v;
    }
  }
  std::mt19937_64 rng(1406);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 100000; ++i) {
    const double v = unit(rng);
    ASSERT_EQ(Score(v), Printf6g(v)) << v;
  }
}

/// JsonEscape(s) inside a check request, decoded by the server's parser.
std::string WireRoundTrip(const std::string& s) {
  server::Request request =
      server::ParseRequest(R"({"op": "check", "sql": ")" + JsonEscape(s) + "\"}");
  EXPECT_TRUE(request.ok) << request.error_message;
  return request.sql;
}

TEST(EmitFormatTest, EscapedStringsDecodeBackThroughTheWireParser) {
  OnBothTiers([] {
    std::string all_ascii;
    for (int c = 0; c < 0x80; ++c) {
      const std::string one(1, static_cast<char>(c));
      EXPECT_EQ(WireRoundTrip(one), one) << "byte " << c;
      // Embedded mid-string, past a 16-byte block boundary.
      const std::string framed = "0123456789abcdefghij" + one + "klmnopqrstuvwxyz";
      EXPECT_EQ(WireRoundTrip(framed), framed) << "byte " << c;
      all_ascii += one;
    }
    EXPECT_EQ(WireRoundTrip(all_ascii), all_ascii);
    EXPECT_EQ(WireRoundTrip(all_ascii + all_ascii), all_ascii + all_ascii);
    const std::string utf8 =
        "caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80 \"\xC3\xA9\\\n\xE2\x80\x93\t"
        "\xF0\x9F\x8E\x89\x01 h\xC3\xA9llo w\xC3\xB6rld";
    EXPECT_EQ(WireRoundTrip(utf8), utf8);
    for (size_t cut = 0; cut < utf8.size(); ++cut) {
      // Every suffix that starts on a character boundary is valid UTF-8.
      if ((static_cast<unsigned char>(utf8[cut]) & 0xC0) == 0x80) continue;
      const std::string tail = utf8.substr(cut);
      EXPECT_EQ(WireRoundTrip(tail), tail) << "suffix " << cut;
    }
  });
}

TEST(EmitJsonTest, GoldenSingleFinding) {
  Report report = FindAntiPatterns("SELECT * FROM users");
  const char* kGolden = R"json({
  "tool": "sqlcheck",
  "findings": 1,
  "distinct_types": 1,
  "results": [
    {
      "rank": 1,
      "rule": "Column Wildcard Usage",
      "id": "column-wildcard-usage",
      "category": "Query",
      "source": "intra-query",
      "score": 0.212,
      "table": "users",
      "column": "",
      "query": "SELECT * FROM users",
      "message": "SELECT * couples the application to the table layout; it breaks on refactoring and fetches columns the caller never reads",
      "fix": {
        "kind": "textual",
        "explanation": "replace SELECT * with the columns the caller actually reads",
        "statements": [],
        "impacted_queries": 0
      }
    }
  ]
}
)json";
  EXPECT_EQ(report.ToJson(), kGolden);
  EXPECT_EQ(ToJson(report), kGolden);  // member delegates to the free emitter
}

TEST(EmitJsonTest, GoldenEmptyReport) {
  Report report = FindAntiPatterns("SELECT id FROM t WHERE id = 1");
  ASSERT_TRUE(report.empty());
  EXPECT_EQ(report.ToJson(),
            "{\n"
            "  \"tool\": \"sqlcheck\",\n"
            "  \"findings\": 0,\n"
            "  \"distinct_types\": 0,\n"
            "  \"results\": []\n"
            "}\n");
}

TEST(EmitJsonTest, MaxFindingsCapsResultsAndReportsSuppressed) {
  SqlCheck checker;
  checker.AddScript(
      "SELECT * FROM a; SELECT * FROM b; SELECT x FROM c ORDER BY RAND();");
  Report report = checker.Run();
  ASSERT_EQ(report.size(), 3u);

  EmitOptions options;
  options.max_findings = 1;
  std::string json = ToJson(report, options);
  EXPECT_EQ(CountOccurrences(json, "\"rank\":"), 1u);
  EXPECT_NE(json.find("\"findings\": 3"), std::string::npos);  // totals stay honest
  EXPECT_NE(json.find("\"suppressed\": 2"), std::string::npos);
}

TEST(EmitJsonTest, EscapesQuotesNewlinesAndControlCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line1\nline2\ttab"), "line1\\nline2\\ttab");
  EXPECT_EQ(JsonEscape(std::string("nul\x01", 4)), "nul\\u0001");

  Report report = FindAntiPatterns("SELECT * FROM users WHERE name = 'a\"b\nc'");
  std::string json = report.ToJson();
  EXPECT_NE(json.find("a\\\"b\\nc"), std::string::npos);
  EXPECT_EQ(json.find("a\"b"), std::string::npos);  // raw quote never leaks
  EXPECT_EQ(json.find("b\nc"), std::string::npos);  // raw newline never leaks
}

TEST(EmitSarifTest, CarriesRequiredSarifKeysAndCatalog) {
  Report report = FindAntiPatterns("SELECT * FROM users");
  EmitOptions options;
  options.artifact_uri = "app/queries.sql";
  std::string sarif = ToSarif(report, options);

  // SARIF 2.1.0 required keys.
  EXPECT_NE(sarif.find("\"$schema\": "
                       "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                       "master/Schemata/sarif-schema-2.1.0.json\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"runs\": ["), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"sqlcheck\""), std::string::npos);

  // Full 27-rule driver catalog, one entry per anti-pattern.
  EXPECT_EQ(CountOccurrences(sarif, "\"shortDescription\""),
            static_cast<size_t>(kAntiPatternCount));

  // The result block, pinned exactly.
  const char* kResult = R"json(        {
          "ruleId": "column-wildcard-usage",
          "ruleIndex": 13,
          "level": "warning",
          "message": { "text": "SELECT * couples the application to the table layout; it breaks on refactoring and fetches columns the caller never reads | query: SELECT * FROM users" },
          "locations": [
            {
              "physicalLocation": { "artifactLocation": { "uri": "app/queries.sql" } },
              "logicalLocations": [ { "name": "users", "kind": "member" } ]
            }
          ],
          "properties": { "score": 0.212, "source": "intra-query" }
        })json";
  EXPECT_NE(sarif.find(kResult), std::string::npos) << sarif;
}

TEST(EmitSarifTest, OmitsPhysicalLocationWithoutArtifactUri) {
  Report report = FindAntiPatterns("SELECT * FROM users");
  std::string sarif = report.ToSarif();
  EXPECT_EQ(sarif.find("physicalLocation"), std::string::npos);
  EXPECT_NE(sarif.find("logicalLocations"), std::string::npos);
}

TEST(EmitSarifTest, EmptyReportIsStillAValidRun) {
  Report report;
  std::string sarif = report.ToSarif();
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"results\": []"), std::string::npos);
  EXPECT_EQ(CountOccurrences(sarif, "\"shortDescription\""),
            static_cast<size_t>(kAntiPatternCount));
}

TEST(EmitFixesTest, GoldenJsonWithVerifiedRewrite) {
  // --fixes surface: the fix object gains verification fields and the
  // impacted list; everything before them is byte-identical to the default
  // emission (the baseline shape is golden-tested above).
  SqlCheck checker;
  checker.AddScript(
      "CREATE TABLE users (user_id INTEGER PRIMARY KEY, name VARCHAR(10));\n"
      "SELECT * FROM users;\n");
  Report report = checker.Run();
  ASSERT_EQ(report.size(), 1u);

  EmitOptions options;
  options.include_fixes = true;
  const char* kGoldenFix = R"json(      "fix": {
        "kind": "rewrite",
        "explanation": "expanded SELECT * into the concrete column list so schema changes cannot silently alter the result shape",
        "statements": ["SELECT user_id, name FROM users"],
        "impacted_queries": 0,
        "verified": true,
        "verify_tier": "analysis",
        "replaces_original": true,
        "verify_note": "",
        "anchor": "SELECT * FROM users",
        "impacted": []
      })json";
  std::string json = ToJson(report, options);
  EXPECT_NE(json.find(kGoldenFix), std::string::npos) << json;
  // Severity grading (ranking/model.h thresholds) rides the same surface.
  EXPECT_NE(json.find("\"severity\": \"medium\""), std::string::npos) << json;

  // Without --fixes the very same report emits the baseline fix shape.
  std::string baseline = ToJson(report);
  EXPECT_EQ(baseline.find("\"verified\""), std::string::npos);
  EXPECT_NE(baseline.find("\"impacted_queries\": 0\n"), std::string::npos);
}

TEST(EmitFixesTest, GoldenSarifFixesShape) {
  const char* kWorkload =
      "CREATE TABLE users (user_id INTEGER PRIMARY KEY, name VARCHAR(10));\n"
      "SELECT * FROM users;\n";
  SqlCheck checker;
  checker.AddScript(kWorkload);
  Report report = checker.Run();
  ASSERT_EQ(report.size(), 1u);

  EmitOptions options;
  options.include_fixes = true;
  options.artifact_uri = "app/queries.sql";
  options.artifact_content = kWorkload;
  std::string sarif = ToSarif(report, options);

  // SARIF 2.1.0 fixes[] shape, pinned exactly: one fix, one artifactChange,
  // one replacement per source edit, whose deletedRegion is the edited span
  // inside the artifact.
  const char* kGoldenFixes = R"json(          "fixes": [
            {
              "description": { "text": "expanded SELECT * into the concrete column list so schema changes cannot silently alter the result shape" },
              "properties": { "verify_tier": "analysis" },
              "artifactChanges": [
                {
                  "artifactLocation": { "uri": "app/queries.sql" },
                  "replacements": [
                    {
                      "deletedRegion": { "charOffset": 75, "charLength": 1 },
                      "insertedContent": { "text": "user_id, name" }
                    }
                  ]
                }
              ]
            }
          ],)json";
  EXPECT_NE(sarif.find(kGoldenFixes), std::string::npos) << sarif;

  // The deleted region really is the star of the offending statement.
  EXPECT_EQ(std::string(kWorkload).substr(68, 9), "SELECT * ");

  // Default SARIF emission stays fix-free.
  EmitOptions plain;
  plain.artifact_uri = "app/queries.sql";
  EXPECT_EQ(ToSarif(report, plain).find("\"fixes\""), std::string::npos);
}

TEST(EmitFixesTest, DuplicateOffendersAnchorToSuccessiveOccurrences) {
  const char* kWorkload =
      "CREATE TABLE users (user_id INTEGER PRIMARY KEY, name VARCHAR(10));\n"
      "SELECT * FROM users;\n"
      "SELECT * FROM users;\n";
  SqlCheck checker;
  checker.AddScript(kWorkload);
  Report report = checker.Run();
  ASSERT_EQ(report.size(), 2u);

  EmitOptions options;
  options.include_fixes = true;
  options.artifact_uri = "app/queries.sql";
  options.artifact_content = kWorkload;
  std::string sarif = ToSarif(report, options);
  // Two identical offending statements: each result's fix must edit its
  // own occurrence's star, not both the first.
  std::string content(kWorkload);
  size_t first = content.find('*');
  size_t second = content.find('*', first + 1);
  EXPECT_NE(sarif.find("\"charOffset\": " + std::to_string(first) + ","),
            std::string::npos)
      << sarif;
  EXPECT_NE(sarif.find("\"charOffset\": " + std::to_string(second) + ","),
            std::string::npos)
      << sarif;
}

TEST(EmitFixesTest, SarifReplacementsSpliceWhatApplyWrites) {
  // One replacement per edit: applying a finding's SARIF replacements to the
  // artifact gives --apply's text, comments and layout included.
  const std::string workload =
      "CREATE TABLE users (user_id INTEGER PRIMARY KEY, email VARCHAR(40));\n"
      "-- lookups\n"
      "SELECT user_id /* id */ FROM users\n"
      "  WHERE email LIKE '%@example.com' OR email LIKE '%@example.org';\n";
  SqlCheck checker;
  checker.AddScript(workload);
  Report report = checker.Run();
  ASSERT_EQ(report.size(), 1u);
  ASSERT_EQ(report.findings[0].fix.edits.size(), 4u);

  EmitOptions options;
  options.include_fixes = true;
  options.artifact_uri = "app/queries.sql";
  options.artifact_content = workload;
  const std::string sarif = ToSarif(report, options);
  std::string patched = workload;
  size_t pos = sarif.size();
  while ((pos = sarif.rfind("\"charOffset\": ", pos - 1)) != std::string::npos) {
    // Replacements come in offset order; apply them back to front.
    const size_t offset = std::stoul(sarif.substr(pos + 14));
    const size_t length =
        std::stoul(sarif.substr(sarif.find("\"charLength\": ", pos) + 14));
    const size_t text = sarif.find("\"text\": \"", pos) + 9;
    patched.replace(offset, length, sarif.substr(text, sarif.find('"', text) - text));
    if (pos == 0) break;
  }
  EXPECT_EQ(patched, ApplyFixes(workload, report));
  EXPECT_EQ(patched,
            "CREATE TABLE users (user_id INTEGER PRIMARY KEY, email VARCHAR(40));\n"
            "-- lookups\n"
            "SELECT user_id /* id */ FROM users\n"
            "  WHERE REVERSE(email) LIKE 'moc.elpmaxe@%' OR REVERSE(email) LIKE "
            "'gro.elpmaxe@%';\n");
}

TEST(EmitFixesTest, AdditiveDdlFixInsertsAtEndOfArtifact) {
  const char* kWorkload =
      "CREATE TABLE t (k INTEGER PRIMARY KEY, owner VARCHAR(10));\n"
      "SELECT k FROM t WHERE owner = 'x';\n";
  SqlCheck checker;
  checker.AddScript(kWorkload);
  Report report = checker.Run();

  EmitOptions options;
  options.include_fixes = true;
  options.artifact_uri = "app/queries.sql";
  options.artifact_content = kWorkload;
  std::string sarif = ToSarif(report, options);
  // Index Underuse proposes CREATE INDEX — an additive fix: zero-length
  // deletion at end-of-artifact.
  std::string expected = "\"deletedRegion\": { \"charOffset\": " +
                         std::to_string(std::string(kWorkload).size()) +
                         ", \"charLength\": 0 }";
  EXPECT_NE(sarif.find(expected), std::string::npos) << sarif;
  EXPECT_NE(sarif.find("CREATE INDEX idx_t_owner ON t (owner);"), std::string::npos);
}

TEST(ReportTextTest, ColorAddsAnsiWithoutChangingDefaultOutput) {
  Report report = FindAntiPatterns("SELECT * FROM users");
  std::string plain = report.ToText();
  std::string colored = report.ToText(0, /*color=*/true);
  EXPECT_EQ(plain.find('\x1b'), std::string::npos);
  EXPECT_NE(colored.find("\x1b[1m"), std::string::npos);
  EXPECT_NE(plain, colored);

  // Stripping the escape codes recovers the plain rendering exactly.
  std::string stripped;
  for (size_t i = 0; i < colored.size(); ++i) {
    if (colored[i] == '\x1b') {
      while (i < colored.size() && colored[i] != 'm') ++i;
      continue;
    }
    stripped.push_back(colored[i]);
  }
  EXPECT_EQ(stripped, plain);
}

}  // namespace
}  // namespace sqlcheck
