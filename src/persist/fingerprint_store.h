#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mmap_file.h"
#include "common/status.h"

namespace sqlcheck {
class RuleRegistry;
}

namespace sqlcheck::persist {

/// \brief One finding as a caller hands it to `Append`. Only `type` and
/// `score` persist (see FindingStat): the scan report is pure aggregates, so
/// `source`, `has_query`, `table`, `column` and `message` are accepted and
/// dropped. A record's findings are a pure function of its key — the scan
/// keys a statement by its exact-canonical text when every finding on it is
/// statement-local, and by that text plus its repository's digest otherwise
/// — which is what makes replaying them sound.
struct StoredFinding {
  uint8_t type = 0;       ///< AntiPattern, numeric. Persisted.
  uint8_t source = 0;     ///< DetectionSource, numeric. Not persisted.
  bool has_query = false; ///< Detection::query was non-empty. Not persisted.
  double score = 0.0;     ///< Ranking impact score. Persisted bit-exact.
  std::string table;      ///< Not persisted.
  std::string column;     ///< Not persisted.
  std::string message;    ///< Not persisted.

  bool operator==(const StoredFinding& other) const {
    return type == other.type && source == other.source &&
           has_query == other.has_query && score == other.score &&
           table == other.table && column == other.column &&
           message == other.message;
  }
};

/// \brief What a statement record stores of each finding: the two fields
/// the corpus report (rule occurrence counts, severity histogram) reads.
struct FindingStat {
  uint8_t type = 0;
  double score = 0.0;
};

/// \brief One statement of a manifest: the ordinal of the statement record
/// that carries its findings, plus that record's two fingerprints. The
/// manifest stores only the ordinal; `ProbeFile` fills the fingerprints in
/// from the record.
struct StmtRef {
  uint64_t exact = 0;
  uint64_t tmpl = 0;
  uint64_t record = 0;  ///< 1-based ordinal of a statement record, in log order.
};

/// \brief Statement records framed off the store by
/// `FingerprintStore::FrameRecord`, back to back in one buffer: byte for
/// byte what `Append` stages, record checksum included. Only FrameRecord
/// writes one, so `AppendFramed` never adopts bytes the store did not frame.
/// The scan's workers frame their repository's records here, in parallel,
/// and the serial write-back only deduplicates and copies them.
class FramedRecords {
 public:
  size_t size() const { return starts_.size(); }

 private:
  friend class FingerprintStore;
  std::string bytes_;
  std::vector<size_t> starts_;  ///< Byte offset of each record in bytes_.
};

/// \brief Open-lifetime counters and identity of one store. `warning` is
/// non-empty when the open degraded (corruption, version/rule-set mismatch,
/// lock contention) — the scan surfaces it and continues cold.
struct StoreStats {
  uint64_t entries = 0;        ///< Statement entries probeable now.
  uint64_t file_entries = 0;   ///< Manifest entries (committed + staged).
  uint64_t bytes = 0;          ///< Committed file bytes at open.
  uint64_t generation = 0;     ///< Bumped every rebuild/compaction.
  uint64_t hits = 0;           ///< Statement probe hits since open.
  uint64_t misses = 0;         ///< Statement probe misses since open.
  uint64_t file_hits = 0;      ///< Manifest probe hits since open.
  uint64_t file_misses = 0;    ///< Manifest probe misses since open.
  uint64_t appended = 0;       ///< Statement entries appended since open.
  uint64_t appended_files = 0; ///< Manifest entries appended since open.
  bool degraded = false;       ///< Open could not use the existing contents.
  std::string warning;         ///< Human-readable degradation reason ("" = clean).
};

/// \brief The persistent memo behind `sqlcheck scan`: a single-file, mmap'd,
/// checksummed append log holding two record kinds.
///
/// *Statement records* map a key (text + 64-bit fingerprint) to the
/// (type, score) of each of its findings, and carry no finding text. Probes
/// compare the stored key text, not just the hash, so a fingerprint
/// collision can never splice one statement's findings onto another.
///
/// *Manifest records* map a path plus a (size, mtime) freshness key to the
/// ordered list of statement record ordinals (the 1-based position of a
/// statement record in log order), 4 bytes per statement. The scan
/// writes one per repository, under `"<repo>/"`, keyed by the repository's
/// total bytes and a digest of its files' (path, size, mtime) triples: a
/// warm scan that sees an unchanged key replays the repository's entire
/// contribution without opening a file; any mismatch (or any unresolvable
/// record) re-analyzes the repository. Size plus mtime is the standard
/// build-cache freshness check (ccache and friends): a same-size in-place
/// edit inside one mtime tick is the documented blind spot.
///
/// Layout: a 64-byte header (magic, format version, rule-set hash,
/// generation, committed statement count, committed log end, XXH64 checksum)
/// followed by records, each with a trailing XXH64 checksum. A statement
/// record is a 28-byte prefix (magic, total, exact and template
/// fingerprints, finding count), the key text, 9 bytes per finding (type
/// byte, score bits) and the checksum; the key length is what the total
/// leaves. A manifest record is a 32-byte prefix, the path and one u32
/// ordinal per statement. FrameRecord frames a statement record on
/// any thread; AppendFramed stages the frame into an in-memory buffer that
/// probes read in place. Commit() (and Close()) write its uncommitted
/// part with one bulk write(2) past the committed end, fsync, and only then
/// publish a new header — a crash at any point leaves the previous header
/// pointing at the old, fully-valid prefix, and the torn tail is truncated on
/// the next open. Records appended in a session stay probeable after Commit.
///
/// Validity is keyed by (format version, rule-set hash): if either differs
/// at open the contents are discarded and the generation bumped — stored
/// findings are only meaningful under the rule set that produced them. A
/// file that does not carry the magic at all is never touched (the store
/// refuses to clobber what it did not write). Writers take a non-blocking
/// exclusive flock; on contention the open degrades to "disabled" and the
/// scan runs cold — two scans never interleave appends.
class FingerprintStore {
 public:
  /// Record ordinal sentinel: ordinals start at 1.
  static constexpr uint64_t kNoRecord = 0;

  FingerprintStore() = default;
  ~FingerprintStore() { Close(); }
  FingerprintStore(const FingerprintStore&) = delete;
  FingerprintStore& operator=(const FingerprintStore&) = delete;

  /// Opens (creating if absent) for a scan under `ruleset_hash`. Returns
  /// non-OK only for hard errors (unwritable path); every recoverable problem
  /// degrades instead: the store comes back either usable-and-empty (rebuilt,
  /// `stats().warning` says why) or unusable (`usable()` false — foreign file
  /// or lock contention) and the caller scans cold.
  Status Open(const std::string& path, uint64_t ruleset_hash);

  /// True when probes/appends are live. False before Open, after Close, or
  /// when Open refused the file (not ours / locked by another scan).
  bool usable() const { return fd_ >= 0; }

  /// Looks up a statement by key. On hit fills the (type, score) stats (may
  /// be an empty list — "analyzed, clean" is cached too) and reports the
  /// serving record's template fingerprint and ordinal (for manifests);
  /// each out-pointer may be null. Thread-safe against concurrent
  /// Probe*/Resolve* calls (the scan workers share one read-only store);
  /// Append*/Commit/Close must not overlap them.
  bool ProbeStats(std::string_view canonical, uint64_t fingerprint,
                  std::vector<FindingStat>* out, uint64_t* template_fingerprint,
                  uint64_t* record);

  /// Looks up a manifest by its freshness key. On hit fills `out` with one
  /// reference per statement (each record's ordinal and fingerprints) and
  /// returns true.
  bool ProbeFile(std::string_view rel_path, uint64_t size, uint64_t mtime_ns,
                 std::vector<StmtRef>* out);

  /// Appends the finding stats of statement record `record` (an ordinal) to
  /// `out` when the record's fingerprint matches `fingerprint`. A record
  /// committed at open had its frame and checksum checked then, under the
  /// flock, and is read in place; one appended since open is checked here.
  /// Returns false, appending nothing, on any mismatch — callers fall back
  /// to analyzing again. `template_fingerprint` (optional) receives the
  /// record's template fingerprint.
  bool ResolveStats(uint64_t record, uint64_t fingerprint,
                    std::vector<FindingStat>* out,
                    uint64_t* template_fingerprint) const;

  /// Frames one statement record onto `out`: the bytes `Append` stages for
  /// these arguments, checksum included. Touches no store, so any thread
  /// may frame into its own buffer. Only each finding's `type` and `score`
  /// are stored; `Finding` is StoredFinding or FindingStat. This is the one
  /// place that writes a statement record's body.
  template <typename Finding>
  static void FrameRecord(std::string_view canonical, uint64_t fingerprint,
                          uint64_t template_fingerprint,
                          const std::vector<Finding>& findings, FramedRecords* out);

  /// Stages record `index` of `records` and returns its ordinal. If its
  /// fingerprint+canonical is already present (committed or appended)
  /// returns the existing record's ordinal instead — first write wins.
  /// Returns kNoRecord when the store is unusable, the log is frozen by an
  /// earlier failure, or the ordinals (u32 on disk) are used up.
  uint64_t AppendFramed(const FramedRecords& records, size_t index);

  /// FrameRecord + AppendFramed for one record.
  template <typename Finding = StoredFinding>
  uint64_t Append(std::string_view canonical, uint64_t fingerprint,
                  uint64_t template_fingerprint, const std::vector<Finding>& findings);

  /// Stages one manifest entry. Each reference must name a statement record
  /// committed or appended before it (ordinals Append returned in this
  /// session count — Commit publishes both atomically), with that record's
  /// exact and template fingerprints; any other reference refuses the whole
  /// entry (returns false).
  bool AppendFile(std::string_view rel_path, uint64_t size, uint64_t mtime_ns,
                  const std::vector<StmtRef>& stmts);

  /// Publishes staged records: one bulk write past the committed end, fsync,
  /// rewrite the header, fsync. Idempotent.
  Status Commit();

  /// Commit + unlock + unmap. Idempotent.
  void Close();

  /// Snapshot of the counters (hit/miss tallies fold in the atomics).
  StoreStats stats() const;

  /// Walks `path` validating the header, every record checksum, the header's
  /// record count, and that every manifest ordinal names a statement record
  /// before it. `summary` (optional) receives a one-line human-readable
  /// report (`entries=` records, `files=` manifests, `refs=` manifest
  /// references, ...). Non-OK on any invalid byte.
  static Status Verify(const std::string& path, std::string* summary);

  /// Rewrites `path` keeping the last manifest per path and, of the
  /// statement records, only those a kept manifest references (first per
  /// fingerprint+canonical), remapping manifest ordinals onto the compacted
  /// layout, dropping any uncommitted tail, under a bumped generation. A
  /// fresh store on a temp file writes the result through Append, AppendFile
  /// and Commit, and only a fully committed temp file is renamed over
  /// `path`, so a crash or failure mid-compaction leaves the original
  /// intact. A store invalidated by `ruleset_hash` compacts to empty; one
  /// the open rebuilt for any other reason (corruption, an older format
  /// version) returns non-OK naming that reason.
  static Status Compact(const std::string& path, uint64_t ruleset_hash,
                        std::string* summary);

  /// FNV-1a over the registry's rule slugs (registration order) and the
  /// format version: the key that ties stored findings to the rule set that
  /// produced them. Disabling a rule changes the hash, so a store can never
  /// replay findings a different rule set would not produce.
  static uint64_t RulesetHash(const RuleRegistry& registry);

 private:
  struct FileEntry {
    uint64_t size = 0;
    uint64_t mtime_ns = 0;
    std::vector<uint32_t> records;  ///< Statement record ordinals.
  };
  /// Where statement record `ordinal` lives, and its fingerprints.
  struct RecordSlot {
    uint64_t offset = 0;  ///< File offset.
    uint64_t exact = 0;
    uint64_t tmpl = 0;
  };

  Status OpenLocked(uint64_t ruleset_hash);
  void Rebuild(uint64_t generation, std::string warning);
  bool LoadIndex(uint64_t entry_count);
  bool WriteHeader(uint64_t log_end);
  void ClearState();
  void MarkUnusable(std::string warning);
  /// Refuses further appends and commits after a failed flush or publish.
  Status Freeze(std::string warning);
  /// The bytes holding statement record `ordinal` (the mapping for records
  /// committed at open, `appended_buf_` for the rest), with `*at` set to its
  /// offset in them; empty when no record has that ordinal.
  std::string_view RecordBytes(uint64_t ordinal, uint64_t* at) const;
  /// Ordinal of the record keyed (fingerprint, canonical), committed at open
  /// or appended since, or kNoRecord; fills the optional out-pointers on a
  /// hit. Uncounted: ProbeStats counts, Append's dedup does not.
  uint64_t Find(std::string_view canonical, uint64_t fingerprint,
                std::vector<FindingStat>* out, uint64_t* template_fingerprint) const;

  int fd_ = -1;
  MappedFile map_;                 ///< Committed region at open.
  uint64_t ruleset_hash_ = 0;
  uint64_t open_end_ = 0;          ///< Committed bytes at open (the mapped end).
  uint64_t log_end_ = 0;           ///< Committed bytes (header included).
  /// Every record appended since open, at file offsets from `open_end_` on;
  /// Commit writes the part past `log_end_`.
  std::string appended_buf_;
  bool append_broken_ = false;     ///< A failed flush/publish froze the log.
  StoreStats stats_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> file_hits_{0};
  std::atomic<uint64_t> file_misses_{0};
  /// Every statement record, committed or appended, by ordinal − 1.
  std::vector<RecordSlot> records_;
  /// (fingerprint, ordinal) of every record committed at open, sorted by
  /// fingerprint; a collision chain keeps log order, and probes compare
  /// canonical text. Records appended since index into `appended_` instead,
  /// so the vector never grows after open.
  std::vector<std::pair<uint64_t, uint32_t>> index_;
  std::unordered_multimap<uint64_t, uint32_t> appended_;  ///< fingerprint → ordinal.
  /// Committed file manifests, root-relative path → freshness key + refs.
  /// Later records for one path supersede earlier ones (last write wins).
  std::unordered_map<std::string, FileEntry> file_index_;
};

}  // namespace sqlcheck::persist
