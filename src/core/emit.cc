#include "core/emit.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>

#include "common/strings.h"
#include "sql/block_scan.h"

namespace sqlcheck {

namespace {

const char* SourceName(DetectionSource source) {
  switch (source) {
    case DetectionSource::kIntraQuery: return "intra-query";
    case DetectionSource::kInterQuery: return "inter-query";
    case DetectionSource::kDataAnalysis: return "data-analysis";
  }
  return "unknown";
}

void AppendQuoted(std::string* out, std::string_view s) {
  *out += '"';
  AppendJsonEscaped(out, s);
  *out += '"';
}

std::string Quoted(std::string_view s) {
  std::string out;
  AppendQuoted(&out, s);
  return out;
}

/// Per-anti-pattern strings the emitters repeat for every finding, built
/// once and stored quoted and escaped.
struct TypeStrings {
  std::string rule;      ///< ApName.
  std::string id;        ///< ApSlug.
  std::string category;  ///< CategoryName of the rule's category.
};

const TypeStrings& StringsFor(AntiPattern type) {
  static const std::array<TypeStrings, kAntiPatternCount> kStrings = [] {
    std::array<TypeStrings, kAntiPatternCount> strings;
    for (int t = 0; t < kAntiPatternCount; ++t) {
      const auto type = static_cast<AntiPattern>(t);
      TypeStrings& s = strings[t];
      s.rule = Quoted(ApName(type));
      s.id = Quoted(ApSlug(type));
      s.category = Quoted(CategoryName(InfoFor(type).category));
    }
    return strings;
  }();
  return kStrings[static_cast<size_t>(type)];
}

void AppendUint(std::string* out, uint64_t value) {
  char buffer[24];
  char* end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  out->append(buffer, end);
}

size_t EmitLimit(const Report& report, const EmitOptions& options) {
  if (options.max_findings == 0) return report.findings.size();
  return std::min(options.max_findings, report.findings.size());
}

/// Upper-bound guess of one finding's rendered size, for reserving the
/// output once: its variable-length fields plus the fixed layout.
size_t EstimateFindingBytes(const Finding& f, bool include_fixes) {
  const Detection& d = f.ranked.detection;
  size_t bytes = 512 + d.table.size() + d.column.size() + d.query.size() +
                 d.message.size() + f.fix.explanation.size();
  for (const std::string& s : f.fix.statements) bytes += s.size() + 4;
  if (include_fixes) {
    bytes += 160 + f.fix.verify_note.size() + f.fix.original_sql.size();
    for (const std::string& q : f.fix.impacted_queries) bytes += q.size() + 4;
  }
  return bytes;
}

size_t EstimateReportBytes(const Report& report, size_t limit, bool include_fixes) {
  size_t bytes = 256;
  for (size_t i = 0; i < limit; ++i) {
    bytes += EstimateFindingBytes(report.findings[i], include_fixes);
  }
  return bytes;
}

/// The one finding serializer behind both renderings: pretty (ToJson's
/// result entries at indent 4, byte-stable and golden-tested) and compact
/// (single line — the server's NDJSON finding unit). Field set and ordering
/// are identical by construction.
void AppendFindingObject(std::string* out, const Finding& f, size_t rank,
                         bool include_fixes, bool pretty) {
  const Detection& d = f.ranked.detection;
  // Pretty puts each member on its own line, finding members at indent 6
  // and fix members at 8; compact separates them with ", ".
  const std::string_view next = pretty ? ",\n      \"" : ", \"";
  const std::string_view next_fix = pretty ? ",\n        \"" : ", \"";
  auto key = [out](std::string_view separator, std::string_view name) {
    *out += separator;
    *out += name;
    *out += "\": ";
  };
  *out += pretty ? "    {\n      \"rank\": " : "{\"rank\": ";
  AppendUint(out, rank);
  const TypeStrings& type = StringsFor(d.type);
  key(next, "rule");
  *out += type.rule;
  key(next, "id");
  *out += type.id;
  key(next, "category");
  *out += type.category;
  key(next, "source");
  AppendQuoted(out, SourceName(d.source));
  key(next, "score");
  AppendScore(out, f.ranked.score);
  if (include_fixes) {
    key(next, "severity");
    AppendQuoted(out, SeverityName(ScoreSeverity(f.ranked.score)));
  }
  key(next, "table");
  AppendQuoted(out, d.table);
  key(next, "column");
  AppendQuoted(out, d.column);
  key(next, "query");
  AppendQuoted(out, d.query);
  key(next, "message");
  AppendQuoted(out, d.message);
  key(next, "fix");
  *out += pretty ? "{\n        \"kind\": " : "{\"kind\": ";
  *out += f.fix.kind == FixKind::kRewrite ? "\"rewrite\"" : "\"textual\"";
  key(next_fix, "explanation");
  AppendQuoted(out, f.fix.explanation);
  key(next_fix, "statements");
  *out += '[';
  for (size_t s = 0; s < f.fix.statements.size(); ++s) {
    if (s > 0) *out += ", ";
    AppendQuoted(out, f.fix.statements[s]);
  }
  *out += ']';
  key(next_fix, "impacted_queries");
  AppendUint(out, f.fix.impacted_queries.size());
  if (include_fixes) {
    // Extended diagnosis surface (--fixes): verification status, anchor,
    // and the impacted-query list itself.
    key(next_fix, "verified");
    *out += f.fix.verified ? "true" : "false";
    key(next_fix, "verify_tier");
    AppendQuoted(out, VerifyTierName(f.fix.verify_tier));
    key(next_fix, "replaces_original");
    *out += f.fix.replaces_original ? "true" : "false";
    key(next_fix, "verify_note");
    AppendQuoted(out, f.fix.verify_note);
    key(next_fix, "anchor");
    AppendQuoted(out, f.fix.original_sql);
    key(next_fix, "impacted");
    *out += '[';
    for (size_t q = 0; q < f.fix.impacted_queries.size(); ++q) {
      if (q > 0) *out += ", ";
      AppendQuoted(out, f.fix.impacted_queries[q]);
    }
    *out += ']';
  }
  *out += pretty ? "\n      }\n    }" : "}}";
}

/// One SARIF replacement: delete `length` bytes at `offset`, insert `text`.
void AppendReplacement(std::string* out, size_t offset, size_t length,
                       std::string_view text) {
  *out += "                    {\n";
  *out += "                      \"deletedRegion\": { \"charOffset\": ";
  AppendUint(out, offset);
  *out += ", \"charLength\": ";
  AppendUint(out, length);
  *out += " },\n";
  *out += "                      \"insertedContent\": { \"text\": \"";
  AppendJsonEscaped(out, text);
  *out += "\" }\n                    }";
}

/// Emits the SARIF 2.1.0 `fixes[]` member for one verified rewrite: one fix
/// with one artifactChange whose replacement regions are located inside the
/// workload text. A statement-replacing rewrite gets one replacement per
/// source edit, at the offending statement's offset (found by `locator`)
/// plus the edit's offset; additive DDL inserts at end-of-artifact
/// (charLength 0). Emits nothing when the anchor cannot be located or no
/// content was supplied.
void AppendSarifFixes(std::string* out, const Fix& fix, const EmitOptions& options,
                      FixLocator* locator) {
  if (!options.include_fixes || fix.kind != FixKind::kRewrite || !fix.verified ||
      fix.statements.empty() || options.artifact_uri.empty() ||
      options.artifact_content.empty()) {
    return;
  }
  size_t at = options.artifact_content.size();  // additive: end of file
  if (fix.replaces_original) {
    at = locator->Locate(fix);
    if (at == std::string_view::npos || fix.edits.empty()) return;
  }
  *out += ",\n          \"fixes\": [\n            {\n";
  *out += "              \"description\": { \"text\": ";
  AppendQuoted(out, fix.explanation);
  *out += " },\n              \"properties\": { \"verify_tier\": ";
  AppendQuoted(out, VerifyTierName(fix.verify_tier));
  *out += " },\n              \"artifactChanges\": [\n                {\n";
  *out += "                  \"artifactLocation\": { \"uri\": ";
  AppendQuoted(out, options.artifact_uri);
  *out += " },\n                  \"replacements\": [\n";
  if (!fix.replaces_original) AppendReplacement(out, at, 0, Join(fix.statements, "\n"));
  for (size_t e = 0; e < fix.edits.size(); ++e) {
    if (e > 0) *out += ",\n";
    const SourceEdit& edit = fix.edits[e];
    AppendReplacement(out, at + edit.offset, edit.length, edit.text);
  }
  *out += "\n                  ]\n                }\n"
          "              ]\n            }\n          ]";
}

}  // namespace

void AppendJsonEscaped(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t pos = 0;
  while (true) {
    const size_t special = sql::blockscan::JsonSpecialEnd(s, pos);
    out->append(s.data() + pos, special - pos);  // UTF-8 bytes pass through
    if (special == s.size()) return;
    const auto c = static_cast<unsigned char>(s[special]);
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default: {
        const char escape[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out->append(escape, sizeof(escape));
      }
    }
    pos = special + 1;
  }
}

void AppendScore(std::string* out, double score) {
  // to_chars' general format at precision 6 is specified as printf("%.6g")
  // in the C locale: the precision ToText's ostream formatting uses, and a
  // valid JSON number for the bounded [0, 1] scores.
  char buffer[32];
  char* end =
      std::to_chars(buffer, buffer + sizeof(buffer), score, std::chars_format::general, 6)
          .ptr;
  out->append(buffer, end);
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(&out, s);
  return out;
}

std::string ApSlug(AntiPattern type) {
  std::string slug;
  for (char c : std::string_view(ApName(type))) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!slug.empty() && slug.back() != '-') {
      slug.push_back('-');
    }
  }
  if (!slug.empty() && slug.back() == '-') slug.pop_back();
  return slug;
}

std::string FindingToJsonLine(const Finding& finding, size_t rank, bool include_fixes) {
  std::string out;
  out.reserve(EstimateFindingBytes(finding, include_fixes));
  AppendFindingObject(&out, finding, rank, include_fixes, /*pretty=*/false);
  return out;
}

std::string ToJson(const Report& report, const EmitOptions& options) {
  const size_t limit = EmitLimit(report, options);
  std::string out;
  out.reserve(EstimateReportBytes(report, limit, options.include_fixes));
  out += "{\n  \"tool\": \"sqlcheck\",\n  \"findings\": ";
  AppendUint(&out, report.findings.size());
  out += ",\n  \"distinct_types\": ";
  AppendUint(&out, report.DistinctTypes());
  out += ",\n  \"results\": [";
  for (size_t i = 0; i < limit; ++i) {
    out += i == 0 ? "\n" : ",\n";
    AppendFindingObject(&out, report.findings[i], i + 1, options.include_fixes,
                        /*pretty=*/true);
  }
  out += limit == 0 ? "]" : "\n  ]";
  if (limit < report.findings.size()) {
    out += ",\n  \"suppressed\": ";
    AppendUint(&out, report.findings.size() - limit);
  }
  out += "\n}\n";
  return out;
}

std::string ToSarif(const Report& report, const EmitOptions& options) {
  const size_t limit = EmitLimit(report, options);
  std::string out;
  out.reserve(8192 + EstimateReportBytes(report, limit, options.include_fixes));
  out +=
      "{\n"
      "  \"$schema\": "
      "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
      "Schemata/sarif-schema-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"sqlcheck\",\n"
      "          \"informationUri\": \"https://doi.org/10.1145/3318464.3389754\",\n"
      "          \"rules\": [";
  // The full catalog, in enum order, so result ruleIndex values are stable.
  for (int t = 0; t < kAntiPatternCount; ++t) {
    AntiPattern type = InfoFor(static_cast<AntiPattern>(t)).type;
    out += t == 0 ? "\n" : ",\n";
    const TypeStrings& strings = StringsFor(type);
    out += "            {\n              \"id\": ";
    out += strings.id;
    out += ",\n              \"name\": ";
    out += strings.rule;
    out += ",\n              \"shortDescription\": { \"text\": ";
    out += strings.rule;
    out += " },\n              \"properties\": { \"category\": ";
    out += strings.category;
    out += " }\n            }";
  }
  out += "\n          ]\n        }\n      },\n      \"results\": [";
  FixLocator fix_locator(options.artifact_content);
  for (size_t i = 0; i < limit; ++i) {
    const Finding& f = report.findings[i];
    const Detection& d = f.ranked.detection;
    out += i == 0 ? "\n" : ",\n";
    out += "        {\n          \"ruleId\": ";
    out += StringsFor(d.type).id;
    out += ",\n          \"ruleIndex\": ";
    AppendUint(&out, static_cast<uint64_t>(d.type));
    out += ",\n          \"level\": \"warning\",\n          \"message\": { \"text\": \"";
    AppendJsonEscaped(&out, d.message);
    if (!d.query.empty()) {
      out += " | query: ";
      AppendJsonEscaped(&out, d.query);
    }
    out += "\" }";
    if (!d.table.empty() || !options.artifact_uri.empty()) {
      out += ",\n          \"locations\": [\n            {";
      bool first = true;
      if (!options.artifact_uri.empty()) {
        out += "\n              \"physicalLocation\": { \"artifactLocation\": { \"uri\": ";
        AppendQuoted(&out, options.artifact_uri);
        out += " } }";
        first = false;
      }
      if (!d.table.empty()) {
        out += first ? "\n" : ",\n";
        out += "              \"logicalLocations\": [ { \"name\": \"";
        AppendJsonEscaped(&out, d.table);
        if (!d.column.empty()) {
          out += '.';
          AppendJsonEscaped(&out, d.column);
        }
        out += "\", \"kind\": \"member\" } ]";
      }
      out += "\n            }\n          ]";
    }
    AppendSarifFixes(&out, f.fix, options, &fix_locator);
    out += ",\n          \"properties\": { \"score\": ";
    AppendScore(&out, f.ranked.score);
    out += ", \"source\": ";
    AppendQuoted(&out, SourceName(d.source));
    out += " }\n        }";
  }
  out += limit == 0 ? "]\n" : "\n      ]\n";
  out += "    }\n  ]\n}\n";
  return out;
}

std::string Report::ToJson() const { return sqlcheck::ToJson(*this); }

std::string Report::ToSarif() const { return sqlcheck::ToSarif(*this); }

}  // namespace sqlcheck
