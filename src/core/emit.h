#pragma once

#include <string>
#include <string_view>

#include "core/report.h"

namespace sqlcheck {

/// \brief Options for the structured report emitters.
struct EmitOptions {
  /// Cap on emitted findings (0 = all) — the CLI's --top flag.
  size_t max_findings = 0;
  /// Artifact URI recorded in SARIF result locations ("" = omit physical
  /// locations; logical locations — table/column — are always emitted).
  std::string artifact_uri;
  /// Surface the full diagnosis (the CLI's --fixes flag): ToJson adds the
  /// verification fields and impacted-query list to each fix object, and
  /// ToSarif emits SARIF 2.1.0 `fixes[]` with artifactChanges/replacements
  /// whose regions are located inside `artifact_content`. Off by default so
  /// the baseline emission stays byte-stable.
  bool include_fixes = false;
  /// The workload text behind `artifact_uri`; SARIF fix replacement regions
  /// (deletedRegion charOffset/charLength) are computed by locating each
  /// fix's anchor statement in it. Leave empty to omit fixes[] regions.
  std::string artifact_content;
};

/// \brief Renders the report as deterministic, pretty-printed JSON: run
/// totals plus one result object per finding (rule, category, source, score,
/// table/column, offending query, message, and the suggested fix). Byte
/// stability is part of the contract — golden-file tested.
std::string ToJson(const Report& report, const EmitOptions& options = {});

/// \brief Renders the report as a SARIF 2.1.0 log (the GitHub code scanning
/// / IDE interchange format): one run, the full 27-rule driver catalog, and
/// one result per finding with logical (table/column) locations. Validated
/// against the SARIF 2.1.0 required-key set by golden-file tests.
std::string ToSarif(const Report& report, const EmitOptions& options = {});

/// \brief Appends `s` to `*out`, escaped for embedding inside a JSON string
/// literal (quotes, backslashes, and control characters; no surrounding
/// quotes; UTF-8 passes through). Every JSON emitter escapes through it: it
/// finds the bytes to escape with the block scanner
/// (sql::blockscan::JsonSpecialEnd) and copies the runs between them.
void AppendJsonEscaped(std::string* out, std::string_view s);

/// \brief Escapes a string for embedding inside a JSON string literal —
/// AppendJsonEscaped into a fresh string.
std::string JsonEscape(std::string_view s);

/// \brief Appends a score exactly as printf("%.6g") prints it in the C
/// locale (the emitters' score format).
void AppendScore(std::string* out, double score);

/// \brief Stable machine identifier for an anti-pattern: the display name
/// lowered with non-alphanumerics folded to '-' ("column-wildcard-usage").
/// Shared by the JSON/SARIF emitters, the rule-reference generator, and the
/// server wire protocol.
std::string ApSlug(AntiPattern type);

/// \brief One finding as a single-line JSON object — the NDJSON unit of the
/// sqlcheck-server wire protocol. Carries exactly the fields of a ToJson
/// result entry (rank, rule, id, category, source, score, table, column,
/// query, message, fix{...}); field parity is structural, not cosmetic: both
/// renderings run through one shared emitter, so the server's streamed
/// findings cannot drift from the batch document format.
std::string FindingToJsonLine(const Finding& finding, size_t rank,
                              bool include_fixes = false);

}  // namespace sqlcheck
