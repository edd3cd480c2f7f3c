#include "core/session.h"

#include <algorithm>
#include <exception>
#include <functional>
#include <span>
#include <string_view>
#include <utility>

#include "analysis/data_analyzer.h"
#include "analysis/query_analyzer.h"
#include "common/failpoint.h"
#include "fix/fix_engine.h"
#include "fix/fixer.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"
#include "sql/splitter.h"

namespace sqlcheck {

AnalysisSession::AnalysisSession(SqlCheckOptions options)
    : options_(std::move(options)),
      registry_(RuleRegistry::Default()),
      quarantine_(options_.quarantine_capacity) {
  status_ = registry_.Disable(options_.disabled_rules);
  ScopeFixPairs();
}

void AnalysisSession::AttachDatabase(const Database* db) {
  ++generation_;
  context_.database_ = db;
  if (db != nullptr) {
    context_.catalog_ = db->BuildCatalog();
    context_.data_ = AnalyzeDatabase(*db, options_.data_analyzer);
  } else {
    context_.catalog_ = Catalog();
    context_.data_ = DataContext();
  }
  // Workload DDL layers on top of the database schema, so attaching late
  // reproduces attaching first.
  for (const sql::Statement* stmt : context_.statements_) {
    context_.catalog_.ApplyDdl(*stmt);
  }
}

void AnalysisSession::RegisterRule(std::unique_ptr<Rule> rule) {
  registry_.Register(std::move(rule));
  ScopeFixPairs();
  ++generation_;
  // The new rule may become the Tier-2 verifier of its type's rewrites.
  verify_memo_.clear();
}

namespace {

/// Scratch (TokenBuffer) reservation above which the post-append trim kicks
/// in: steady-state statements stay far below this, so only a pathological
/// one-off statement ever pays the trim/regrow cycle.
constexpr size_t kScratchTrimBytes = 1 << 20;

/// Statements an append lands before running each later ingest phase over
/// them (analysis, aggregates): a phase then runs 64 times in a row with its
/// code hot, which measured ~10% faster per statement than running every
/// phase per statement. The deadline is checked before each statement lands,
/// so it is overrun by at most one batch's analysis.
constexpr size_t kIngestBatch = 64;

/// Reserves room for `extra` more elements without defeating geometric
/// growth: a bare reserve(size()+1) per appended statement would
/// reallocate-and-copy the whole vector each time, turning a session O(n^2).
template <typename Vec>
void GrowFor(Vec& v, size_t extra) {
  const size_t need = v.size() + extra;
  if (need > v.capacity()) v.reserve(std::max(need, v.capacity() * 2));
}

/// Rebases one group-representative detection onto another occurrence of
/// the same canonical statement: query text and parse-tree pointer move from
/// the representative's to the occurrence's, everything else is shared.
void RebaseDetection(Detection* d, const QueryFacts& rep_facts, const QueryFacts& occ_facts) {
  if (d->query == rep_facts.raw_sql) d->query = occ_facts.raw_sql;
  if (d->stmt == rep_facts.stmt) d->stmt = occ_facts.stmt;
}

/// Appends every rule's CheckData over the profiled tables, profile-major /
/// rule-minor.
void DetectDataAntiPatterns(const Context& context, const RuleRegistry& registry,
                            const DetectorConfig& config, std::vector<Detection>* out) {
  if (!config.data_analysis) return;
  for (const auto& [_, profile] : context.data().profiles) {
    for (const auto& rule : registry.rules()) {
      rule->CheckData(profile, context, config, out);
    }
  }
}

/// Fix-cache key: a hash of the finding's row, key fields and raw statement
/// text.
uint64_t FixKey(size_t row, const Detection& d) {
  const std::hash<std::string_view> hash;
  uint64_t key = row * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(d.type);
  for (std::string_view part : {std::string_view(d.table), std::string_view(d.column),
                                std::string_view(d.query)}) {
    key ^= hash(part) + 0x9E3779B97F4A7C15ull + (key << 6) + (key >> 2);
  }
  return key;
}

}  // namespace

Status AnalysisSession::CheckQuota(size_t incoming_bytes) const {
  // Framing-level guard before the quota math: Token stores u32 source
  // offsets (sql/token.h), so one Lex() pass — and hence one append — is
  // capped at 4 GiB of SQL. Nothing real approaches this; it exists so the
  // narrowing is provably safe even against adversarial input.
  if (incoming_bytes > sql::kMaxLexBytes) {
    return Status::Error("single append exceeds the 4 GiB lexer span limit");
  }
  const SessionLimits& limits = options_.limits;
  if (limits.unlimited()) return Status::Ok();
  if (limits.max_statements != 0 &&
      context_.statements_.size() >= limits.max_statements) {
    return Status::Error("statement quota exhausted (max_statements=" +
                         std::to_string(limits.max_statements) + ")");
  }
  if (limits.max_ingest_bytes != 0 &&
      ingested_bytes_ + incoming_bytes > limits.max_ingest_bytes) {
    return Status::Error("ingest byte quota exhausted (max_ingest_bytes=" +
                         std::to_string(limits.max_ingest_bytes) + ")");
  }
  if (limits.arena_cap_bytes != 0 &&
      context_.arena_reserved_bytes() >= limits.arena_cap_bytes) {
    return Status::Error("session arena cap reached (arena_cap_bytes=" +
                         std::to_string(limits.arena_cap_bytes) + ")");
  }
  if (limits.interner_cap_names != 0 &&
      context_.names().size() >= limits.interner_cap_names) {
    return Status::Error("interner name cap reached (interner_cap_names=" +
                         std::to_string(limits.interner_cap_names) + ")");
  }
  return Status::Ok();
}

SessionUsage AnalysisSession::Usage() const {
  SessionUsage usage;
  usage.statements = context_.statements_.size();
  usage.unique_groups = context_.query_groups_.unique.size();
  usage.ingested_bytes = ingested_bytes_;
  usage.arena_reserved_bytes = context_.arena_reserved_bytes();
  usage.arena_used_bytes = context_.arena_used_bytes();
  usage.scratch_reserved_bytes = token_buffer_.reserved_bytes();
  usage.interner_names = context_.names().size();
  usage.interner_bytes = context_.names().memory_bytes();
  return usage;
}

uint64_t AnalysisSession::QuarantineKey(std::string_view sql) {
  // Key computation runs with injected faults suspended: the insert (made
  // while a chaos profile is firing) and the later repeat-offender probe
  // (typically after faults clear) must derive the same key, or the
  // quarantine never matches. Real faults still hit the raw-bytes fallback.
  FailpointScopeSuspend no_faults;
  try {
    return sql::FingerprintCanonical(
        sql::CanonicalizeSql(sql, sql::FingerprintOptions::Exact()));
  } catch (const std::exception&) {
    // Canonicalization itself faulted — key the raw bytes (FNV-1a is what
    // FingerprintCanonical applies to its input anyway). A cosmetic variant
    // of the same poison then re-quarantines under its own key, which is
    // correct, just slower.
    return sql::FingerprintCanonical(sql);
  }
}

void AnalysisSession::RecordFailure(std::string_view sql, const char* code,
                                    std::string message, bool quarantined) {
  ++failures_recorded_;
  if (failures_.size() >= kMaxRecordedFailures) return;
  StatementFailure failure;
  failure.sql = std::string(sql);
  failure.code = code;
  failure.message = std::move(message);
  failure.quarantined = quarantined;
  failures_.push_back(std::move(failure));
}

void AnalysisSession::Quarantine(std::string_view sql) {
  quarantine_.Insert(QuarantineKey(sql));
  ++statements_quarantined_;
}

bool AnalysisSession::QuarantineRefused(std::string_view piece) {
  if (quarantine_.empty()) return false;
  if (!quarantine_.Touch(QuarantineKey(piece))) return false;
  ++quarantine_refusals_;
  RecordFailure(piece, "internal_error",
                "statement fingerprint is quarantined (repeat offender); "
                "reset the session to clear the quarantine",
                /*quarantined=*/true);
  return true;
}

sql::StatementPtr AnalysisSession::ParseWithRetry(std::string_view piece,
                                                  std::string* error) {
  for (int attempt = 0; attempt < kFaultRetryAttempts; ++attempt) {
    try {
      FailpointScope fault_scope;  // parse allocations are a chaos seam
      sql::StatementPtr stmt =
          sql::ParseStatement(piece, context_.arena(), &token_buffer_);
      if (attempt > 0) ++faults_recovered_;
      return stmt;
    } catch (const std::exception& e) {
      *error = e.what();
    }
  }
  return nullptr;
}

void AnalysisSession::AppendPieces(std::span<const std::string_view> pieces) {
  const size_t first = context_.statements_.size();
  const bool budgeted = options_.statement_budget_ms > 0;
  QueryGroups& groups = context_.query_groups_;
  // Room for the whole batch up front: the pushes in LandPiece then cannot
  // throw, so a memo-stage fault always observes a fully consistent session.
  const size_t extra = pieces.size();
  GrowFor(context_.trees_, extra);
  GrowFor(context_.statements_, extra);
  GrowFor(context_.query_facts_, extra);
  GrowFor(groups.representative, extra);
  GrowFor(groups.fingerprints, extra);
  if (options_.dedup_queries) GrowFor(groups.canonical, extra);
  GrowFor(groups.unique, extra);
  GrowFor(groups.group, extra);
  GrowFor(rule_cache_, extra);
  std::vector<LandedPiece> landed;  // statement first + k is landed[k]
  landed.reserve(pieces.size());
  std::vector<size_t> new_uniques;

  for (std::string_view piece : pieces) {
    if (deadline_.has_value() && Clock::now() >= *deadline_) {
      RecordFailure(piece, "deadline_exceeded",
                    "request deadline expired before this statement",
                    /*quarantined=*/false);
      continue;
    }
    if (QuarantineRefused(piece)) continue;
    const auto start = budgeted ? Clock::now() : Clock::time_point{};
    if (!LandPiece(piece, &new_uniques)) continue;
    landed.push_back({piece, budgeted ? Clock::now() - start : Clock::duration{}});
  }
  if (landed.empty()) return;
  ++generation_;  // a new statement can change any fix

  // Analysis and statement-local rules, once per new group.
  for (size_t u : new_uniques) {
    const auto start = budgeted ? Clock::now() : Clock::time_point{};
    AnalyzeUnique(u);
    if (budgeted) landed[groups.unique[u] - first].cost += Clock::now() - start;
  }

  // Duplicates take a copy of their group's facts rebased onto their own raw
  // text and parse tree; everything folds into the aggregates in order.
  for (size_t i = first; i < context_.statements_.size(); ++i) {
    const size_t rep = groups.representative[i];
    if (rep != i) {
      context_.query_facts_[i] =
          RebaseFacts(context_.query_facts_[rep], *context_.statements_[i]);
    }
    context_.stats_.AddStatementFacts(i, context_.query_facts_[i]);
  }

  if (!budgeted) return;
  for (const LandedPiece& p : landed) {
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(p.cost).count();
    if (elapsed <= options_.statement_budget_ms) continue;
    // The statement landed (its results are valid) but blew its budget:
    // quarantine the fingerprint so its repeats are refused in O(1).
    Quarantine(p.piece);
    RecordFailure(p.piece, "deadline_exceeded",
                  "statement took " + std::to_string(elapsed) + "ms against a " +
                      std::to_string(options_.statement_budget_ms) +
                      "ms budget; fingerprint quarantined (statement was "
                      "ingested)",
                  /*quarantined=*/true);
  }
}

bool AnalysisSession::LandPiece(std::string_view piece,
                                std::vector<size_t>* new_uniques) {
  const size_t i = context_.statements_.size();
  QueryGroups& groups = context_.query_groups_;
  const sql::Statement* stmt = nullptr;
  size_t rep = i;
  RawKey raw{};
  std::string_view canonical;
  if (options_.dedup_queries) {
    raw = MakeRawKey(Trim(piece));  // the parser trims raw_sql the same way
    auto raw_it = raw_memo_.find(raw);
    if (raw_it != raw_memo_.end()) {
      // These exact bytes landed before: share that occurrence's tree.
      const size_t source = raw_it->second;
      stmt = context_.statements_[source];
      rep = groups.representative[source];
      groups.fingerprints.push_back(groups.fingerprints[source]);
      ++raw_repeats_;
    }
  }
  if (stmt == nullptr) {
    std::string error;
    sql::StatementPtr parsed = ParseWithRetry(piece, &error);
    if (parsed == nullptr) {
      Quarantine(piece);
      RecordFailure(piece, "internal_error",
                    "statement parse failed persistently (" + error +
                        "); fingerprint quarantined",
                    /*quarantined=*/true);
      return false;
    }
    if (options_.dedup_queries) {
      uint64_t fingerprint = 0;
      if (!ResolveGroup(*parsed, raw, i, &rep, &fingerprint, &canonical)) return false;
      groups.fingerprints.push_back(fingerprint);
    }
    stmt = parsed.get();
    context_.trees_.push_back(std::move(parsed));
  }
  groups.representative.push_back(rep);
  groups.group.push_back(rep == i ? groups.unique.size() : groups.group[rep]);
  context_.catalog_.ApplyDdl(*stmt);  // ignores DML; duplicate DDL is a no-op
  if (rep == i) {
    new_uniques->push_back(groups.unique.size());
    groups.unique.push_back(i);
    if (options_.dedup_queries) groups.canonical.push_back(canonical);
    rule_cache_.emplace_back();
  }
  context_.statements_.push_back(stmt);
  context_.query_facts_.emplace_back();
  return true;
}

size_t AnalysisSession::AddQuery(std::string_view sql_text) {
  failures_.clear();
  if (!GateAppend(sql_text.size())) return 0;
  const size_t first = context_.statements_.size();
  AppendPieces({&sql_text, 1});
  TrimScratch();
  return first;
}

size_t AnalysisSession::AddScript(std::string_view script) {
  failures_.clear();
  if (!GateAppend(script.size())) return 0;
  const size_t first = context_.statements_.size();
  // The splitter returns trimmed, non-empty views into `script`. Its lexer
  // scratch allocates, so the split is a retried chaos seam like the parse.
  std::vector<std::string_view> pieces;
  std::string split_error;
  bool split_ok = false;
  for (int attempt = 0; attempt < kFaultRetryAttempts && !split_ok; ++attempt) {
    try {
      FailpointScope fault_scope;
      pieces = sql::SplitStatements(script, nullptr, &token_buffer_);
      split_ok = true;
      if (attempt > 0) ++faults_recovered_;
    } catch (const std::exception& e) {
      split_error = e.what();
    }
  }
  if (!split_ok) {
    RecordFailure(script.substr(0, 256), "internal_error",
                  "script split failed persistently (" + split_error + ")",
                  /*quarantined=*/false);
    return 0;
  }
  const std::span<const std::string_view> all(pieces);
  for (size_t b = 0; b < all.size(); b += kIngestBatch) {
    AppendPieces(all.subspan(b, std::min(kIngestBatch, all.size() - b)));
  }
  TrimScratch();
  return context_.statements_.size() - first;
}

bool AnalysisSession::GateAppend(size_t incoming_bytes) {
  Status quota = CheckQuota(incoming_bytes);
  if (!quota.ok()) {
    quota_status_ = std::move(quota);
    return false;
  }
  ingested_bytes_ += incoming_bytes;
  return true;
}

void AnalysisSession::TrimScratch() {
  if (token_buffer_.reserved_bytes() > kScratchTrimBytes) token_buffer_.Trim();
}

bool AnalysisSession::ResolveGroup(const sql::Statement& stmt, const RawKey& raw,
                                   size_t i, size_t* rep, uint64_t* fingerprint,
                                   std::string_view* canonical_key) {
  // The memo stage allocates (canonical string + two hash-table nodes), so
  // it can fault — for real under memory pressure, on demand under the
  // memo_insert failpoint. It retries with rollback: if the raw-spelling
  // insert fails after the canonical node landed, the canonical entry is
  // erased before the retry, so no memo ever points at a statement slot that
  // is never filled.
  std::string memo_error;
  for (int attempt = 0; attempt < kFaultRetryAttempts; ++attempt) {
    try {
      FailpointScope fault_scope;  // memo allocations are a chaos seam
      if (SQLCHECK_SCOPED_FAILPOINT("memo_insert")) throw std::bad_alloc();
      // The parse just lexed this text: render the canonical form from its
      // tokens instead of scanning the bytes again.
      const sql::FingerprintOptions exact = sql::FingerprintOptions::Exact();
      std::string canonical = sql::CanonicalizeTokens(token_buffer_.tokens(), exact);
      *fingerprint = sql::FingerprintCanonical(canonical);
      auto [canon_it, inserted] = canonical_memo_.try_emplace(std::move(canonical), i);
      *rep = canon_it->second;
      *canonical_key = canon_it->first;
      try {
        // Keyed by a view of the statement's own raw_sql, which lives in the
        // session arena (the same bytes as `raw.text`).
        raw_memo_.emplace(RawKey{stmt.raw_sql, raw.hash}, i);
      } catch (...) {
        if (inserted) canonical_memo_.erase(canon_it);
        throw;
      }
      if (attempt > 0) ++faults_recovered_;
      return true;
    } catch (const std::exception& e) {
      memo_error = e.what();
    }
  }
  Quarantine(stmt.raw_sql);
  RecordFailure(stmt.raw_sql, "internal_error",
                "statement bookkeeping failed persistently (" + memo_error +
                    "); fingerprint quarantined",
                /*quarantined=*/true);
  return false;
}

void AnalysisSession::AnalyzeUnique(size_t u) {
  const size_t i = context_.query_groups_.unique[u];
  for (int attempt = 0;; ++attempt) {
    try {
      // Opened only around the retried analysis, so the catch's recovery
      // bookkeeping cannot itself draw an injected fault.
      FailpointScope fault_scope;
      context_.query_facts_[i] = AnalyzeQuery(*context_.statements_[i]);
      FillRuleRow(u, /*workload=*/false);
      if (attempt > 0) ++faults_recovered_;
      return;
    } catch (const std::exception& e) {
      // FillRuleRow may have resized the row before throwing — clear it so
      // the retry (or the terminal assign) starts clean instead of skipping
      // half-filled slots.
      rule_cache_[u].slots.clear();
      if (attempt + 1 < kFaultRetryAttempts) continue;
      // Persistent fault: empty facts and empty statement-local slots (so
      // later fills don't re-run them); the workload-scoped slots still
      // evaluate on the empty facts. The fingerprint is quarantined.
      context_.query_facts_[i] = QueryFacts{};
      rule_cache_[u].slots.assign(registry_.rules().size(), {});
      Quarantine(context_.statements_[i]->raw_sql);
      RecordFailure(context_.statements_[i]->raw_sql, "internal_error",
                    std::string("statement analysis failed persistently (") + e.what() +
                        "); findings unavailable, fingerprint quarantined",
                    /*quarantined=*/true);
      return;
    }
  }
}

void AnalysisSession::FillRuleRow(size_t u, bool workload) {
  const auto& rules = registry_.rules();
  RuleCacheRow& row = rule_cache_[u];
  const QueryFacts& facts = context_.query_facts_[context_.query_groups_.unique[u]];
  const size_t filled = row.slots.size();
  row.slots.resize(rules.size());
  row.detections = 0;
  for (size_t r = 0; r < rules.size(); ++r) {
    std::vector<Detection>& slot = row.slots[r];
    const bool local = rules[r]->query_scope() == QueryRuleScope::kStatementLocal;
    if (local ? r >= filled : workload) {
      slot.clear();
      rules[r]->CheckQuery(facts, context_, options_.detector, &slot);
    }
    row.detections += slot.size();
  }
}

void AnalysisSession::RefreshRuleRow(size_t u) {
  RuleCacheRow& row = rule_cache_[u];
  if (row.generation == generation_) {
    ++rule_cache_hits_;
    return;
  }
  ++rule_cache_misses_;
  FillRuleRow(u, /*workload=*/true);
  row.generation = generation_;
}

void AnalysisSession::AppendDetections(size_t first, size_t last,
                                       std::vector<Detection>* out) const {
  const QueryGroups& groups = context_.query_groups_;
  const std::vector<QueryFacts>& queries = context_.queries();
  size_t total = out->size();
  for (size_t i = first; i < last; ++i) total += rule_cache_[groups.group[i]].detections;
  out->reserve(total);
  for (size_t i = first; i < last; ++i) {
    const size_t rep = groups.representative[i];
    for (const std::vector<Detection>& slot : rule_cache_[groups.group[i]].slots) {
      for (const Detection& cached : slot) {
        Detection& d = out->emplace_back(cached);
        if (rep != i) RebaseDetection(&d, queries[rep], queries[i]);
        d.statement = i;
      }
    }
  }
}

Report AnalysisSession::Check(std::string_view sql) {
  const size_t first = context_.statements_.size();
  AddScript(sql);
  const size_t n = context_.statements_.size();
  for (size_t i = first; i < n; ++i) RefreshRuleRow(context_.query_groups_.group[i]);
  std::vector<Detection> detections;
  AppendDetections(first, n, &detections);
  return MakeReport(std::move(detections));
}

Report AnalysisSession::Snapshot() {
  for (size_t u = 0; u < rule_cache_.size(); ++u) RefreshRuleRow(u);
  std::vector<Detection> detections;
  AppendDetections(0, context_.statements_.size(), &detections);
  DetectDataAntiPatterns(context_, registry_, options_.detector, &detections);
  return MakeReport(std::move(detections));
}

Report AnalysisSession::MakeReport(std::vector<Detection> detections) {
  // ap-rank (§5).
  RankingModel model(options_.ranking_weights, options_.ranking_mode);
  std::vector<RankedDetection> ranked = model.Rank(std::move(detections));

  // ap-fix (§6): per-rule fixers + verification, attached in rank order so
  // fixes surface with the impact model's ordering.
  FixEngine engine(registry_, options_.detector, options_.verify_exec,
                   &verify_memo_, &verify_stats_, &token_buffer_);
  Report report;
  report.findings.reserve(ranked.size());
  for (auto& r : ranked) {
    Finding finding;
    if (options_.suggest_fixes) finding.fix = FixForDetection(r.detection, engine);
    finding.ranked = std::move(r);
    report.findings.push_back(std::move(finding));
  }
  return report;
}

Fix AnalysisSession::FixForDetection(const Detection& d, const FixEngine& engine) {
  // A statement's findings are keyed under its occurrence's group; data
  // findings under kNoStatement. With dedup off a statement finding is
  // never cached.
  size_t row = Detection::kNoStatement;
  if (!d.query.empty()) {
    if (!options_.dedup_queries || d.statement >= context_.statements_.size()) {
      return engine.SuggestFix(d, context_);
    }
    row = context_.query_groups_.group[d.statement];
  }
  const bool local = !d.query.empty() && local_fix_pair_[static_cast<size_t>(d.type)];
  const uint64_t key = FixKey(row, d);
  auto it = fix_cache_.find(key);
  if (it != fix_cache_.end()) {
    const CachedFix& cached = it->second;
    const bool same_key = cached.row == row && cached.type == d.type &&
                          cached.table == d.table && cached.column == d.column &&
                          cached.raw == d.query;
    if (same_key && (local || cached.generation == generation_)) {
      ++fix_cache_hits_;
      return cached.fix;
    }
  }
  ++fix_cache_misses_;
  Fix fix = engine.SuggestFix(d, context_);
  fix_cache_.insert_or_assign(key,
                              CachedFix{row, d.type, d.table, d.column, generation_, d.query, fix});
  return fix;
}

void AnalysisSession::ScopeFixPairs() {
  for (size_t t = 0; t < local_fix_pair_.size(); ++t) {
    const auto type = static_cast<AntiPattern>(t);
    const Fixer* fixer = registry_.FindFixer(type);
    const Rule* rule = registry_.FindRule(type);
    local_fix_pair_[t] = fixer != nullptr &&
                         fixer->fix_scope() == QueryRuleScope::kStatementLocal &&
                         rule != nullptr && rule->query_scope() == QueryRuleScope::kStatementLocal;
  }
}

}  // namespace sqlcheck
