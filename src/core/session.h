#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/context.h"
#include "common/status.h"
#include "common/strings.h"
#include "core/options.h"
#include "core/report.h"
#include "rules/registry.h"
#include "sql/lexer.h"
#include "storage/database.h"

namespace sqlcheck {

class FixEngine;

/// \brief Point-in-time memory/ingest accounting for one AnalysisSession —
/// the numbers behind the server's `stats` op and SessionLimits sizing.
struct SessionUsage {
  size_t statements = 0;            ///< Statements ingested.
  size_t unique_groups = 0;         ///< Distinct fingerprint groups.
  size_t ingested_bytes = 0;        ///< Raw SQL bytes accepted so far.
  size_t arena_reserved_bytes = 0;  ///< Parse-tree arena heap reservation.
  size_t arena_used_bytes = 0;      ///< Parse-tree arena live payload.
  size_t scratch_reserved_bytes = 0;  ///< Lexer scratch (TokenBuffer) arena.
  size_t interner_names = 0;        ///< Distinct identifiers interned.
  size_t interner_bytes = 0;        ///< Interner footprint (estimate).
};

/// \brief Bounded LRU of poisoned-statement fingerprints. A statement whose
/// analysis throws/faults persistently (or blows its wall-clock budget) is
/// quarantined by exact-canonical fingerprint; repeat offenders are refused
/// with one O(1) hash probe before any parse work is paid. Bounded so an
/// adversarial stream of distinct poison cannot grow it without limit — the
/// oldest entry falls out, which is the right failure mode (a re-offending
/// evictee just re-quarantines on its next failure).
class QuarantineSet {
 public:
  explicit QuarantineSet(size_t capacity = 256) : capacity_(capacity) {}

  /// True if `key` is quarantined; refreshes its recency.
  bool Touch(uint64_t key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }

  void Insert(uint64_t key) {
    if (capacity_ == 0) return;
    if (Touch(key)) return;
    order_.push_front(key);
    index_.emplace(key, order_.begin());
    if (index_.size() > capacity_) {
      index_.erase(order_.back());
      order_.pop_back();
    }
  }

  bool empty() const { return index_.empty(); }
  size_t size() const { return index_.size(); }

 private:
  size_t capacity_;
  std::list<uint64_t> order_;  ///< Front = most recently touched.
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> index_;
};

/// \brief One statement the latest append call could not fully process. The
/// session survives these — the failure is reported per statement instead of
/// poisoning the tenant — and the server streams each entry as a
/// `statement_error` line. `quarantined` entries were also fingerprinted
/// into the QuarantineSet; note a budget-exceeder (code "deadline_exceeded",
/// quarantined) *was* ingested — only its repeats are refused.
struct StatementFailure {
  std::string sql;      ///< The statement text (possibly a refused piece).
  std::string code;     ///< "internal_error" or "deadline_exceeded".
  std::string message;  ///< Human-readable diagnosis.
  bool quarantined = false;
};

/// \brief The incremental analysis engine: accepts statements one at a time
/// (or in chunks), updates the Context in place, and re-runs only the
/// affected rules. This is the long-lived core the paper's interactive
/// toolchain (§3, §7) implies — an editor/CI/monitor integration appends new
/// statements for the lifetime of an application instead of re-analyzing the
/// whole workload per call.
///
/// What stays incremental:
///  - Parsing/analysis: each distinct statement text is parsed once. The
///    fingerprint memo persists across calls: a byte-identical repeat costs
///    one hash lookup and a facts copy, with no parse and no arena bytes; a
///    cosmetic variant (case, whitespace, comments) is parsed but shares its
///    group's analysis.
///  - Detections: each unique group has one rule-cache row holding every
///    registry rule's detections on its representative. Statement-local
///    rules (Rule::query_scope() == kStatementLocal) fill their slots once,
///    at ingest. Workload-scoped slots are refilled only when the row's
///    stamp differs from the context generation; they read maintained
///    aggregates (Context::stats(), updated per append) rather than
///    O(workload) scans.
///  - Fixes are computed once per context generation (see FixForDetection).
///  - The generation counts the changes that can alter a detection or a
///    fix: an append that lands a statement, AttachDatabase, RegisterRule.
///    A Snapshot() with nothing new evaluates no rule and computes no fix.
///
/// Snapshot() copies each row's detections out to every occurrence of its
/// group in statement order, so its output is byte-identical to an
/// unmemoized run (dedup off, statements appended one at a time) over the
/// same statement order — enforced by tests/test_session.cc.
///
/// \code
///   AnalysisSession session;                     // or session(options)
///   session.AddScript(schema_sql);               // bulk history
///   Report delta = session.Check(incoming_sql);  // findings for new stmt only
///   Report full  = session.Snapshot();           // == batch Run() output
/// \endcode
class AnalysisSession {
 public:
  explicit AnalysisSession(SqlCheckOptions options = {});

  /// Non-OK when the options were invalid (e.g. an unknown name in
  /// disabled_rules); the session still works with the full rule set.
  const Status& status() const { return status_; }

  /// Connects the target database: its schema becomes the catalog baseline
  /// (workload DDL re-applies on top) and its tables are profiled once, now.
  /// May be called before or after statements are added; call again with the
  /// same database to re-profile after its data changes.
  void AttachDatabase(const Database* db);

  /// Registers a custom rule (extensibility hook of §7). Takes effect from
  /// the next Check()/Snapshot(); statements already ingested are covered
  /// (statement-local detections for them are backfilled lazily).
  void RegisterRule(std::unique_ptr<Rule> rule);

  /// Appends one statement. Returns its workload index.
  size_t AddQuery(std::string_view sql_text);

  /// Splits a script and appends its statements in order through the same
  /// path AddQuery takes, so a script appended whole leaves the session
  /// byte-identical to its statements appended singly. Returns the number of
  /// statements appended.
  size_t AddScript(std::string_view script);

  /// Streaming check: appends every statement in `sql` and returns a ranked
  /// report of the findings *on those statements only*, evaluated against
  /// the whole workload seen so far (aggregates include the new statements).
  /// Table-level data-analysis findings are not re-examined here — they
  /// belong to Snapshot(). This is the per-statement hot path: O(rules) with
  /// O(1) aggregate lookups, independent of history length.
  Report Check(std::string_view sql);

  /// Full report over everything ingested so far: byte-identical to
  /// SqlCheck::Run() on the same statements, in the same order. Idempotent —
  /// the session remains usable (and appendable) afterwards.
  Report Snapshot();

  const Context& context() const { return context_; }
  const SqlCheckOptions& options() const { return options_; }
  size_t statement_count() const { return context_.statements_.size(); }
  /// Unique fingerprint groups seen (== statement_count() with dedup off).
  size_t unique_count() const { return context_.query_groups_.unique.size(); }
  /// Statements that landed as byte-identical repeats of an earlier
  /// statement: not parsed (so not lexed on their own), no arena bytes.
  /// Always 0 with dedup off.
  size_t raw_repeats() const { return raw_repeats_; }
  /// Fix-cache telemetry: fixes served from the cache / fixes computed and
  /// stored in it (see FixForDetection). With dedup off statement findings
  /// are not cached, so their fixes count as neither.
  size_t fix_cache_hits() const { return fix_cache_hits_; }
  size_t fix_cache_misses() const { return fix_cache_misses_; }
  /// Rule-cache telemetry, counted per row refresh (one per group per
  /// Snapshot(), one per new statement per Check()): rows replayed as
  /// cached / rows whose workload-scoped slots were re-evaluated.
  size_t rule_cache_hits() const { return rule_cache_hits_; }
  size_t rule_cache_misses() const { return rule_cache_misses_; }
  /// Rewrite-verification telemetry (fix/verify.h): per-tier counts of the
  /// fixes this session suggested, demotions, differential-execution runs,
  /// and verification-memo hit rates. Counters accumulate across
  /// Check()/Snapshot() calls for the session's lifetime.
  const VerifyStats& verify_stats() const { return verify_stats_; }

  /// Would appending `incoming_bytes` of raw SQL breach SessionLimits? OK
  /// when every cap holds; otherwise an error naming the exhausted quota.
  /// The append paths consult this themselves — the public form lets a
  /// caller (the server) reject a request before paying for its parse.
  Status CheckQuota(size_t incoming_bytes) const;

  /// OK until an append was refused by SessionLimits; then the refusal
  /// reason, sticky until more room appears (it never does — caps only
  /// tighten as the session grows — so treat non-OK as terminal and either
  /// drop the tenant or start a fresh session). Snapshot()/Check() over the
  /// already-ingested history keep working either way.
  const Status& quota_status() const { return quota_status_; }

  /// Current memory/ingest accounting (see SessionUsage).
  SessionUsage Usage() const;

  /// Statements the *latest* append call (AddQuery/AddScript/Check) could
  /// not fully process: persistent faults, quarantine refusals, deadline
  /// expiries. Cleared at the start of each append. Capped at
  /// kMaxRecordedFailures entries per call so a mass expiry cannot balloon a
  /// response; quarantine/refusal side effects still apply past the cap.
  const std::vector<StatementFailure>& recent_failures() const { return failures_; }

  /// Wall-clock deadline for subsequent append work: once it passes, the
  /// remaining statements of the current (and any later) append are refused
  /// with a "deadline_exceeded" failure entry instead of being analyzed.
  /// Checked before each statement lands; landed statements are analyzed in
  /// batches of up to 64, so the deadline is overrun by one batch's
  /// analysis at most (pair with
  /// SqlCheckOptions::statement_budget_ms to quarantine an overrunner). The
  /// server arms this per request from --request-deadline-ms.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) { deadline_ = deadline; }
  void ClearDeadline() { deadline_.reset(); }

  /// Poisoned-statement quarantine telemetry (see QuarantineSet).
  size_t quarantine_size() const { return quarantine_.size(); }
  /// Statements quarantined over the session's lifetime.
  uint64_t statements_quarantined() const { return statements_quarantined_; }
  /// Appends refused by the O(1) quarantine probe (repeat offenders).
  uint64_t quarantine_refusals() const { return quarantine_refusals_; }
  /// Transient faults the append paths absorbed via retry — the statements
  /// involved landed normally (chaos-profile observability).
  uint64_t faults_recovered() const { return faults_recovered_; }

  /// Failure entries one append call records before capping (see
  /// recent_failures()).
  static constexpr size_t kMaxRecordedFailures = 64;

 private:
  /// Parse + memo retry budget under fault injection: a transient fault
  /// (arena_alloc, memo_insert) is retried this many times before the
  /// statement is declared poisoned and quarantined.
  static constexpr int kFaultRetryAttempts = 4;

  using Clock = std::chrono::steady_clock;

  /// One statement an append batch landed.
  struct LandedPiece {
    std::string_view piece;  ///< The statement text as appended.
    Clock::duration cost{};  ///< Land + analysis time (budgeted sessions only).
  };

  /// A raw_memo_ key: a statement text and its hash, hashed once per piece
  /// so the probe and the insert share one hash computation.
  struct RawKey {
    std::string_view text;
    size_t hash;
    bool operator==(const RawKey& other) const {
      return hash == other.hash && text == other.text;
    }
  };
  struct RawKeyHash {
    size_t operator()(const RawKey& key) const noexcept { return key.hash; }
  };
  static RawKey MakeRawKey(std::string_view text) {
    return {text, StringViewHash{}(text)};
  }

  /// The one append path, for AddQuery (one piece) and AddScript (its
  /// pieces, a batch at a time). Per piece: the deadline check, the
  /// quarantine probe and LandPiece. Then, over the landed statements:
  /// analysis and statement-local rules once per new group, duplicate
  /// rebases and the workload aggregates, and the statement budget. Each
  /// guard is a plain branch that costs nothing while it is not armed.
  void AppendPieces(std::span<const std::string_view> pieces);

  /// Lands `piece` as the next statement. A byte-identical repeat of an
  /// earlier statement borrows that statement's tree and group through
  /// raw_memo_, with no lex and no parse; any other text is parsed with
  /// retry and grouped by ResolveGroup. Then the group bookkeeping and the
  /// catalog DDL. False when the piece was dropped after a persistent fault
  /// (quarantined and recorded), leaving the session as if it was never
  /// seen.
  bool LandPiece(std::string_view piece, std::vector<size_t>* new_uniques);

  /// Resolves the fingerprint group of `stmt`, just parsed as statement `i`
  /// (its tokens still in token_buffer_), through canonical_memo_, and
  /// records its text in raw_memo_ (`raw` is its key). Inserts a new group
  /// led by `i` on a miss, retrying transient faults. `canonical_key` views
  /// the group's memo key. False after a persistent fault, which quarantines
  /// and records the statement.
  bool ResolveGroup(const sql::Statement& stmt, const RawKey& raw, size_t i, size_t* rep,
                    uint64_t* fingerprint, std::string_view* canonical_key);

  /// Analyzes the representative of unique group `u` and fills the
  /// statement-local slots of its rule-cache row, retrying transient
  /// faults. A persistent fault leaves empty facts and empty statement-local
  /// slots, and quarantines the statement.
  void AnalyzeUnique(size_t u);

  /// Quota gate for every append path: true = proceed (bytes are charged),
  /// false = refused (quota_status_ records why, nothing is ingested).
  bool GateAppend(size_t incoming_bytes);

  /// Quarantine key of a statement: fingerprint of its exact-canonical form
  /// (whitespace/case-insensitive), falling back to a hash of the raw bytes
  /// if canonicalization itself faults.
  static uint64_t QuarantineKey(std::string_view sql);

  /// Records a StatementFailure (capped, see kMaxRecordedFailures).
  void RecordFailure(std::string_view sql, const char* code, std::string message,
                     bool quarantined);

  /// Quarantines a statement's fingerprint.
  void Quarantine(std::string_view sql);

  /// O(1) repeat-offender probe; records the refusal when it hits.
  bool QuarantineRefused(std::string_view piece);

  /// ParseStatement with a kFaultRetryAttempts retry loop; nullptr + error
  /// message on persistent failure.
  sql::StatementPtr ParseWithRetry(std::string_view piece, std::string* error);

  /// Releases high-water lexer scratch after an append (see
  /// TokenBuffer::Trim) so one huge statement cannot pin megabytes of
  /// per-session scratch for the rest of a long-lived session.
  void TrimScratch();

  /// Fills rule-cache row `u`: the statement-local slots it lacks (a new
  /// row, or rules registered since; they are context-free, so filling them
  /// at any time yields what ingest-time evaluation would have) and, when
  /// `workload`, every workload-scoped slot afresh.
  void FillRuleRow(size_t u, bool workload);

  /// Brings rule-cache row `u` up to the current generation: a row stamped
  /// with it replays (a hit); any other is refilled and stamped (a miss).
  void RefreshRuleRow(size_t u);

  /// Appends the cached detections of statements [first, last) in statement
  /// order and registry rule order, each rebased from its group's
  /// representative onto its own occurrence. Their rows must be fresh.
  void AppendDetections(size_t first, size_t last, std::vector<Detection>* out) const;

  /// ap-rank + ap-fix over an assembled detection stream. Non-const: fix
  /// suggestion funnels through the fix cache.
  Report MakeReport(std::vector<Detection> detections);

  /// ap-fix for one ranked detection, through the fix cache: the one path
  /// for every fixer. A fix is a function of the detection's (type, table,
  /// column), its exact statement text and the context, so an entry computed
  /// for that text at the current generation replays verbatim. A rewrite
  /// edits that exact text, so every entry is keyed by it. When the
  /// detection half *and* the action half are both statement-local
  /// (Rule::query_scope() and Fixer::fix_scope() == kStatementLocal) the fix
  /// does not read the context, so its entry replays at any generation. A
  /// stale entry is recomputed and overwritten in place.
  Fix FixForDetection(const Detection& d, const FixEngine& engine);

  /// Recomputes local_fix_pair_ from the registry.
  void ScopeFixPairs();

  SqlCheckOptions options_;
  RuleRegistry registry_;
  Status status_;
  Status quota_status_;
  size_t ingested_bytes_ = 0;  ///< Raw SQL bytes accepted (quota accounting).
  Context context_;
  sql::TokenBuffer token_buffer_;  ///< Reused across every parse this session runs.

  /// Fingerprint memo (persists across calls). raw_memo_ maps a statement
  /// text (trimmed, as in Statement::raw_sql) to the first occurrence of
  /// exactly those bytes, whose tree and facts a repeat borrows; that
  /// occurrence may be a cosmetic variant of its group's representative.
  /// Its keys view that occurrence's raw_sql in the arena, so a new text
  /// costs no key copy. canonical_memo_ maps an exact-canonical form to its
  /// group's representative.
  std::unordered_map<RawKey, size_t, RawKeyHash> raw_memo_;
  std::unordered_map<std::string, size_t, StringViewHash, std::equal_to<>> canonical_memo_;

  /// One rule-cache row per unique group.
  struct RuleCacheRow {
    /// Per registry rule, its detections on the group's representative.
    std::vector<std::vector<Detection>> slots;
    size_t detections = 0;  ///< Sum of the slots' sizes.
    /// The generation the workload-scoped slots were filled at; 0 = never
    /// (generation_ is at least 1 once any row exists).
    uint64_t generation = 0;
  };
  std::vector<RuleCacheRow> rule_cache_;
  size_t rule_cache_hits_ = 0;
  size_t rule_cache_misses_ = 0;

  /// One cached fix. `row` is the finding's group (kNoStatement for a data
  /// finding); (type, table, column) tells findings within a group apart (a
  /// rule may flag several columns of one statement); `raw` is the exact
  /// statement text it was computed for: a rewrite splices edits into that
  /// text, and ImpactedQueries drops its own statement by exact text, so
  /// whitespace variants of one group get different fixes. `generation` is
  /// the context generation it was computed at; a fix that reads the context
  /// replays only while it matches.
  struct CachedFix {
    size_t row;
    AntiPattern type;
    std::string table;
    std::string column;
    uint64_t generation;
    std::string raw;
    Fix fix;
  };
  /// The fix cache, indexed by a hash of (row, type, table, column, raw). An
  /// entry whose fields do not match the probe (a hash collision) counts as
  /// absent and is overwritten, as is a stale one, so the cache holds at most
  /// one entry per key and spelling.
  std::unordered_map<uint64_t, CachedFix> fix_cache_;
  /// Per AntiPattern: its rule and its fixer are both statement-local, so
  /// its fix replays at any generation (FixForDetection). Recomputed when
  /// the registry changes.
  std::array<bool, kAntiPatternCount> local_fix_pair_{};
  size_t fix_cache_hits_ = 0;
  size_t fix_cache_misses_ = 0;
  size_t raw_repeats_ = 0;
  /// Context generation: bumped by every change that can alter a fix.
  uint64_t generation_ = 0;

  /// Verification verdicts memoized across snapshots: each MakeReport builds
  /// a fresh FixEngine, but the engine writes its verdicts here, so a unique
  /// proposal pays the (Tier-3-expensive) pipeline once per session, not
  /// once per Snapshot(). The fix cache sits in front of it, so the memo is
  /// probed only when a fix is recomputed. Sound because verdicts are
  /// deterministic in the proposal, the options and the registry
  /// (RegisterRule clears the memo, since a new rule can become the Tier-2
  /// verifier of its type). Tier-2 verdicts over *workload-sensitive* rules
  /// could in principle flip as the catalog grows; the memo key includes the
  /// original statement and the rewritten spelling, and catalog growth
  /// changes the rewritten spelling (expansions name the new columns), so
  /// stale entries are simply never probed again.
  VerifyMemo verify_memo_;
  VerifyStats verify_stats_;

  /// Robustness state (failure semantics documented in docs/OPERATIONS.md).
  QuarantineSet quarantine_;
  std::vector<StatementFailure> failures_;
  size_t failures_recorded_ = 0;  ///< Includes entries past the cap.
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  uint64_t statements_quarantined_ = 0;
  uint64_t quarantine_refusals_ = 0;
  uint64_t faults_recovered_ = 0;
};

}  // namespace sqlcheck
