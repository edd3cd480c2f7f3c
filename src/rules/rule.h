#pragma once

#include <string>
#include <vector>

#include "analysis/context.h"
#include "analysis/query_context.h"

namespace sqlcheck {

/// \brief Every anti-pattern sqlcheck detects (Table 1 of the paper, plus
/// Readable Password which appears in the Table 3 distribution).
enum class AntiPattern {
  // Logical design APs.
  kMultiValuedAttribute,
  kNoPrimaryKey,
  kNoForeignKey,
  kGenericPrimaryKey,
  kDataInMetadata,
  kAdjacencyList,
  kGodTable,
  // Physical design APs.
  kRoundingErrors,
  kEnumeratedTypes,
  kExternalDataStorage,
  kIndexOveruse,
  kIndexUnderuse,
  kCloneTable,
  // Query APs.
  kColumnWildcard,
  kConcatenateNulls,
  kOrderingByRand,
  kPatternMatching,
  kImplicitColumns,
  kDistinctAndJoin,
  kTooManyJoins,
  kReadablePassword,
  // Data APs.
  kMissingTimezone,
  kIncorrectDataType,
  kDenormalizedTable,
  kInformationDuplication,
  kRedundantColumn,
  kNoDomainConstraint,
};

/// Number of distinct anti-pattern types.
inline constexpr int kAntiPatternCount = 27;

enum class ApCategory { kLogicalDesign, kPhysicalDesign, kQuery, kData };

/// \brief How a detection was established — used for the intra/inter/data
/// ablation experiments (§8.1).
enum class DetectionSource { kIntraQuery, kInterQuery, kDataAnalysis };

/// \brief One detected anti-pattern instance.
struct Detection {
  AntiPattern type = AntiPattern::kColumnWildcard;
  DetectionSource source = DetectionSource::kIntraQuery;
  std::string table;    ///< Affected table ("" when unknown).
  std::string column;   ///< Affected column ("" when table-level).
  std::string query;    ///< Offending statement text ("" for data detections).
  const sql::Statement* stmt = nullptr;  ///< Parse tree for ap-fix (may be null).
  std::string message;  ///< Human-readable diagnosis.
  /// Workload index of the statement occurrence this detection belongs to,
  /// set when a session assembles a report; kNoStatement for data
  /// detections. Repeats of one text share `stmt`, so this is what tells
  /// their findings apart.
  size_t statement = kNoStatement;

  static constexpr size_t kNoStatement = static_cast<size_t>(-1);
};

/// \brief Detector configuration: which analyses run and the rule thresholds
/// (all configurable, per §4.2).
struct DetectorConfig {
  bool intra_query = true;
  bool inter_query = true;
  bool data_analysis = true;

  // Thresholds (paper defaults in parentheses where stated).
  int god_table_columns = 10;        ///< Table 1: "cross a threshold (e.g., 10)".
  int too_many_joins = 5;
  int index_overuse_count = 4;       ///< User indexes per table before flagging.
  double enum_distinct_ratio = 0.05; ///< Distinct/rows below this looks enum-ish.
  double delimited_fraction = 0.5;   ///< MVA data rule activation.
  double numeric_string_fraction = 0.9;
  double redundant_fraction = 0.95;  ///< Nulls-or-constant fraction.
  size_t min_rows_for_data_rules = 4;
  double low_cardinality_ratio = 0.01;  ///< Index underuse suppression (Fig 8c).
};

/// \brief What CheckQuery reads — the contract the incremental engine
/// (AnalysisSession) relies on to decide what it may cache.
enum class QueryRuleScope {
  /// Detections derive from (facts, config) alone; the context argument is
  /// never read. Safe to evaluate once per unique statement and replay
  /// verbatim no matter how the workload grows afterwards.
  kStatementLocal,
  /// Detections read the evolving workload context (catalog, other queries,
  /// workload aggregates, data profiles); must be re-evaluated whenever the
  /// context may have changed.
  kWorkload,
};

/// \brief The six raw impact metrics ap-rank collects per AP (§5.1):
///   RP/WP — measured speedup of read/write queries after fixing the AP
///           (e.g. 636x for the multi-valued attribute lookup, Fig. 3a);
///   M     — number of query changes a schema evolution task needs (O(Q) vs
///           O(1), §5.1 ❷), expressed as a small integer scale;
///   DA    — data amplification factor removed by the fix;
///   DI/A  — binary: does the AP threaten integrity / accuracy.
struct ApMetrics {
  double read_speedup = 0.0;
  double write_speedup = 0.0;
  double maintainability = 0.0;
  double data_amplification = 0.0;
  int data_integrity = 0;  // 0/1
  int accuracy = 0;        // 0/1
};

/// \brief One built-in anti-pattern, the paper's rule as one row: display
/// name, category, the five impact flags of Table 1 (Performance,
/// Maintainability, Data Amplification, Data Integrity, Accuracy), the
/// query checks' caching scope, the default ranking metrics (§5.1) and the
/// detection checks. `query` and `data` have Rule::CheckQuery's and
/// Rule::CheckData's signatures and are nullptr when the rule has no such
/// check. The rows live in rules/builtin_rules.cc, in AntiPattern order;
/// the repair half is the same type's row in fix/fixers.cc.
struct ApInfo {
  AntiPattern type;
  const char* name;
  ApCategory category;
  bool performance;
  bool maintainability;
  bool data_amplification;
  bool data_integrity;
  bool accuracy;
  QueryRuleScope scope;
  ApMetrics metrics;
  void (*query)(const QueryFacts& facts, const Context& context,
                const DetectorConfig& config, std::vector<Detection>* out);
  void (*data)(const TableProfile& profile, const Context& context,
               const DetectorConfig& config, std::vector<Detection>* out);
};

/// The row of `type`; an out-of-range value gets row 0.
const ApInfo& InfoFor(AntiPattern type);
const char* ApName(AntiPattern type);
const char* CategoryName(ApCategory category);

/// Reverse lookup by display name (ApName, ASCII-case-insensitive); nullptr
/// when no anti-pattern carries that name. Used to validate user-supplied
/// rule lists (e.g. SqlCheckOptions::disabled_rules, the CLI's --disable).
const ApInfo* FindApInfoByName(std::string_view name);

/// \brief A detection rule: a named check over queries and/or data. Mirrors
/// the paper's generic rule interface (name, type, detection rule). The 27
/// built-ins are BuiltinRule views of the ApInfo rows, which also carry
/// their default ranking metrics; repairs pair with rules by AntiPattern
/// type in fix/. Custom rules implement this interface and are registered
/// with RuleRegistry::Register.
class Rule {
 public:
  virtual ~Rule() = default;

  virtual AntiPattern type() const = 0;

  /// Caching contract for CheckQuery (see QueryRuleScope). The conservative
  /// default forces re-evaluation; built-in rules that never touch the
  /// context override to kStatementLocal so the incremental session can
  /// serve them from its per-fingerprint cache.
  virtual QueryRuleScope query_scope() const { return QueryRuleScope::kWorkload; }

  /// Applied to each analyzed query (Algorithm 2). Implementations honour
  /// `config.intra_query` / `config.inter_query` to scope what they use.
  ///
  /// Under query dedup (SqlCheckOptions::dedup_queries, default on) this may
  /// run once per fingerprint group and have its detections replayed for
  /// every duplicate occurrence, with `query`/`stmt` fields rebased per
  /// occurrence. Derive detections from `facts` and `context` only; a rule
  /// that embeds `facts.raw_sql` anywhere other than Detection::query must
  /// be run with dedup disabled.
  virtual void CheckQuery(const QueryFacts& facts, const Context& context,
                          const DetectorConfig& config,
                          std::vector<Detection>* out) const {
    (void)facts;
    (void)context;
    (void)config;
    (void)out;
  }

  /// Applied to each profiled table (Algorithm 3).
  virtual void CheckData(const TableProfile& profile, const Context& context,
                         const DetectorConfig& config,
                         std::vector<Detection>* out) const {
    (void)profile;
    (void)context;
    (void)config;
    (void)out;
  }
};

/// The Rule face of one built-in ApInfo row.
class BuiltinRule final : public Rule {
 public:
  explicit BuiltinRule(const ApInfo& row) : row_(row) {}

  AntiPattern type() const override { return row_.type; }
  QueryRuleScope query_scope() const override { return row_.scope; }
  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config,
                  std::vector<Detection>* out) const override {
    if (row_.query != nullptr) row_.query(facts, context, config, out);
  }
  void CheckData(const TableProfile& profile, const Context& context,
                 const DetectorConfig& config,
                 std::vector<Detection>* out) const override {
    if (row_.data != nullptr) row_.data(profile, context, config, out);
  }

 private:
  const ApInfo& row_;
};

}  // namespace sqlcheck
