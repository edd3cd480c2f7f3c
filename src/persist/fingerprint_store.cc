#include "persist/fingerprint_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <unordered_set>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/radix_sort.h"
#include "core/emit.h"
#include "rules/registry.h"

namespace sqlcheck::persist {

namespace {

// On-disk format. Everything is little-endian on every target we build for;
// values move through memcpy so alignment never matters. Header and record
// checksums are XXH64 (seed 0). Version 4 stored each finding's source,
// table, column and message as well; version 3 was version 4 with FNV-1a
// checksums.
constexpr char kMagic[8] = {'S', 'Q', 'L', 'C', 'K', 'F', 'S', '1'};
constexpr uint32_t kFormatVersion = 5;
constexpr uint64_t kHeaderBytes = 64;
constexpr uint32_t kRecordMagic = 0x52504653;      // "SFPR": statement record
constexpr uint32_t kFileRecordMagic = 0x46504653;  // "SFPF": file manifest
/// Statement record fixed prefix: magic, total, fingerprint, template
/// fingerprint, canonical length, finding count.
constexpr uint64_t kRecordPrefixBytes = 4 + 4 + 8 + 8 + 4 + 4;
/// File record fixed prefix: magic, total, path length, statement count,
/// file size, mtime (ns).
constexpr uint64_t kFileRecordPrefixBytes = 4 + 4 + 4 + 4 + 8 + 8;
constexpr uint64_t kStmtRefBytes = 8 + 8 + 8;  ///< exact, template, offset.
constexpr uint64_t kRecordChecksumBytes = 8;
/// One finding of a statement record: type byte, score bits (unaligned).
constexpr uint64_t kFindingBytes = 1 + 8;
/// Caps that bound a structurally-valid record: a corrupt length field must
/// fail validation rather than drive a huge allocation.
constexpr uint64_t kMaxRecordBytes = 64ull << 20;

void PutU32(std::string* out, uint32_t v) { out->append(reinterpret_cast<const char*>(&v), 4); }
void PutU64(std::string* out, uint64_t v) { out->append(reinterpret_cast<const char*>(&v), 8); }

uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t GetU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// Parsed header fields (still untrusted until the checksum agrees).
struct HeaderFields {
  uint32_t version = 0;
  uint64_t ruleset_hash = 0;
  uint64_t generation = 0;
  uint64_t entry_count = 0;
  uint64_t log_end = 0;
  bool checksum_ok = false;
};

HeaderFields ParseHeader(const char* buf) {
  HeaderFields h;
  h.version = GetU32(buf + 8);
  h.ruleset_hash = GetU64(buf + 16);
  h.generation = GetU64(buf + 24);
  h.entry_count = GetU64(buf + 32);
  h.log_end = GetU64(buf + 40);
  h.checksum_ok = GetU64(buf + 48) == Xxh64(buf, 48);
  return h;
}

std::string EncodeHeader(uint64_t ruleset_hash, uint64_t generation,
                         uint64_t entry_count, uint64_t log_end) {
  std::string buf;
  buf.reserve(kHeaderBytes);
  buf.append(kMagic, sizeof(kMagic));
  PutU32(&buf, kFormatVersion);
  PutU32(&buf, 0);  // reserved
  PutU64(&buf, ruleset_hash);
  PutU64(&buf, generation);
  PutU64(&buf, entry_count);
  PutU64(&buf, log_end);
  PutU64(&buf, Xxh64(buf.data(), buf.size()));
  buf.resize(kHeaderBytes, '\0');
  return buf;
}

template <typename Finding>
std::string EncodeRecord(std::string_view canonical, uint64_t fingerprint,
                         uint64_t template_fingerprint,
                         const std::vector<Finding>& findings) {
  std::string buf;
  buf.reserve(kRecordPrefixBytes + canonical.size() + findings.size() * kFindingBytes +
              kRecordChecksumBytes);
  PutU32(&buf, kRecordMagic);
  PutU32(&buf, 0);  // total_bytes, patched below
  PutU64(&buf, fingerprint);
  PutU64(&buf, template_fingerprint);
  PutU32(&buf, static_cast<uint32_t>(canonical.size()));
  PutU32(&buf, static_cast<uint32_t>(findings.size()));
  buf.append(canonical);
  for (const Finding& f : findings) {
    buf.push_back(static_cast<char>(f.type));
    uint64_t score_bits;
    std::memcpy(&score_bits, &f.score, 8);
    PutU64(&buf, score_bits);
  }
  uint32_t total = static_cast<uint32_t>(buf.size() + kRecordChecksumBytes);
  std::memcpy(buf.data() + 4, &total, 4);
  PutU64(&buf, Xxh64(buf.data(), buf.size()));
  return buf;
}

std::string EncodeFileRecord(std::string_view rel_path, uint64_t size,
                             uint64_t mtime_ns, const std::vector<StmtRef>& stmts) {
  std::string buf;
  buf.reserve(kFileRecordPrefixBytes + rel_path.size() +
              stmts.size() * kStmtRefBytes + kRecordChecksumBytes);
  PutU32(&buf, kFileRecordMagic);
  PutU32(&buf, 0);  // total_bytes, patched below
  PutU32(&buf, static_cast<uint32_t>(rel_path.size()));
  PutU32(&buf, static_cast<uint32_t>(stmts.size()));
  PutU64(&buf, size);
  PutU64(&buf, mtime_ns);
  buf.append(rel_path);
  for (const StmtRef& s : stmts) {
    PutU64(&buf, s.exact);
    PutU64(&buf, s.tmpl);
    PutU64(&buf, s.offset);
  }
  uint32_t total = static_cast<uint32_t>(buf.size() + kRecordChecksumBytes);
  std::memcpy(buf.data() + 4, &total, 4);
  PutU64(&buf, Xxh64(buf.data(), buf.size()));
  return buf;
}

/// Zero-copy view of one committed statement record.
struct RecordView {
  uint64_t total = 0;
  uint64_t fingerprint = 0;
  uint64_t template_fingerprint = 0;
  std::string_view canonical;
  uint32_t finding_count = 0;
  const char* findings = nullptr;  ///< First packed finding.
};

/// Zero-copy view of one committed file-manifest record.
struct FileRecordView {
  uint64_t total = 0;
  std::string_view path;
  uint64_t size = 0;
  uint64_t mtime_ns = 0;
  uint32_t stmt_count = 0;
  const char* stmts = nullptr;  ///< First packed StmtRef.
};

StmtRef GetStmtRef(const char* p) {
  StmtRef s;
  s.exact = GetU64(p);
  s.tmpl = GetU64(p + 8);
  s.offset = GetU64(p + 16);
  return s;
}

/// Structurally validates (and checksums) the statement record at `offset`,
/// bounds it to `limit`, and fills `out`. Every length field is checked
/// before use.
bool DecodeRecord(std::string_view log, uint64_t offset, uint64_t limit,
                  RecordView* out) {
  if (limit > log.size() || offset > limit ||
      limit - offset < kRecordPrefixBytes + kRecordChecksumBytes) {
    return false;
  }
  const char* p = log.data() + offset;
  if (GetU32(p) != kRecordMagic) return false;
  uint64_t total = GetU32(p + 4);
  if (total < kRecordPrefixBytes + kRecordChecksumBytes || total > kMaxRecordBytes ||
      total > limit - offset) {
    return false;
  }
  if (GetU64(p + total - 8) != Xxh64(p, total - 8)) return false;
  RecordView r;
  r.total = total;
  r.fingerprint = GetU64(p + 8);
  r.template_fingerprint = GetU64(p + 16);
  uint64_t canonical_bytes = GetU32(p + 24);
  r.finding_count = GetU32(p + 28);
  uint64_t payload = total - kRecordPrefixBytes - kRecordChecksumBytes;
  if (canonical_bytes > payload) return false;
  // A checksum-valid record whose lengths disagree with its size (it would
  // take a deliberate forgery, but is cheap to refuse) cannot pass.
  if (payload - canonical_bytes != static_cast<uint64_t>(r.finding_count) * kFindingBytes) {
    return false;
  }
  r.canonical = std::string_view(p + kRecordPrefixBytes, canonical_bytes);
  r.findings = p + kRecordPrefixBytes + canonical_bytes;
  *out = r;
  return true;
}

/// File-record counterpart of DecodeRecord. Statement offsets are range
/// checked by the caller (they must point strictly before this record).
bool DecodeFileRecord(std::string_view log, uint64_t offset, uint64_t limit,
                      FileRecordView* out) {
  if (limit > log.size() || offset > limit ||
      limit - offset < kFileRecordPrefixBytes + kRecordChecksumBytes) {
    return false;
  }
  const char* p = log.data() + offset;
  if (GetU32(p) != kFileRecordMagic) return false;
  uint64_t total = GetU32(p + 4);
  if (total < kFileRecordPrefixBytes + kRecordChecksumBytes ||
      total > kMaxRecordBytes || total > limit - offset) {
    return false;
  }
  if (GetU64(p + total - 8) != Xxh64(p, total - 8)) return false;
  FileRecordView f;
  f.total = total;
  uint64_t path_len = GetU32(p + 8);
  f.stmt_count = GetU32(p + 12);
  f.size = GetU64(p + 16);
  f.mtime_ns = GetU64(p + 24);
  uint64_t payload = total - kFileRecordPrefixBytes - kRecordChecksumBytes;
  if (path_len > payload) return false;
  if (payload - path_len != static_cast<uint64_t>(f.stmt_count) * kStmtRefBytes) {
    return false;
  }
  f.path = std::string_view(p + kFileRecordPrefixBytes, path_len);
  f.stmts = p + kFileRecordPrefixBytes + path_len;
  *out = f;
  return true;
}

void DecodeFindingStats(const RecordView& r, std::vector<FindingStat>* out) {
  out->resize(r.finding_count);
  const char* q = r.findings;
  for (FindingStat& f : *out) {
    f.type = static_cast<uint8_t>(q[0]);
    std::memcpy(&f.score, q + 1, 8);
    q += kFindingBytes;
  }
}

/// Walks the committed records indexed under `fingerprint` (sorted index,
/// collision chains in log order) for the one holding `canonical`.
bool FindRecord(const std::vector<std::pair<uint64_t, uint64_t>>& index,
                std::string_view log, uint64_t log_end, std::string_view canonical,
                uint64_t fingerprint, RecordView* out, uint64_t* offset) {
  auto it = std::lower_bound(
      index.begin(), index.end(), fingerprint,
      [](const std::pair<uint64_t, uint64_t>& e, uint64_t fp) { return e.first < fp; });
  for (; it != index.end() && it->first == fingerprint; ++it) {
    if (DecodeRecord(log, it->second, log_end, out) && out->canonical == canonical) {
      *offset = it->second;
      return true;
    }
  }
  return false;
}

bool PWriteAll(int fd, const char* data, size_t n, uint64_t offset) {
  while (n > 0) {
    ssize_t w = ::pwrite(fd, data, n, static_cast<off_t>(offset));
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<size_t>(w);
    offset += static_cast<uint64_t>(w);
  }
  return true;
}

}  // namespace

Status FingerprintStore::Open(const std::string& path, uint64_t ruleset_hash) {
  Close();
  stats_ = StoreStats{};
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  file_hits_.store(0, std::memory_order_relaxed);
  file_misses_.store(0, std::memory_order_relaxed);
  append_broken_ = false;
  pending_buf_.clear();
  uncommitted_entries_ = 0;
  ruleset_hash_ = ruleset_hash;
  if (SQLCHECK_FAILPOINT("store_open")) {
    MarkUnusable("store open failed (injected store_open fault); scanning cold");
    return Status::Ok();
  }
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status::Error("cannot open store '" + path + "': " + std::strerror(errno));
  }
  if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
    ::close(fd_);
    fd_ = -1;
    MarkUnusable("store '" + path + "' is locked by another scan; scanning cold");
    return Status::Ok();
  }
  Status s = OpenLocked(ruleset_hash);
  if (!s.ok()) {
    ::close(fd_);
    fd_ = -1;
  }
  return s;
}

Status FingerprintStore::OpenLocked(uint64_t ruleset_hash) {
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::Error(std::string("cannot stat store: ") + std::strerror(errno));
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size == 0) {
    Rebuild(/*generation=*/1, /*warning=*/"");
    return Status::Ok();
  }

  char head[kHeaderBytes];
  const ssize_t got = ::pread(fd_, head, sizeof(head), 0);
  const bool magic_ok =
      got >= static_cast<ssize_t>(sizeof(kMagic)) && std::memcmp(head, kMagic, 8) == 0;
  if (!magic_ok) {
    // Not our file: never clobber it. The scan runs cold.
    int fd = fd_;
    fd_ = -1;
    ::close(fd);
    MarkUnusable("store path holds a non-store file; leaving it untouched and scanning cold");
    return Status::Ok();
  }
  if (got < static_cast<ssize_t>(kHeaderBytes)) {
    Rebuild(/*generation=*/1, "store truncated below its header; rebuilding");
    return Status::Ok();
  }

  // The version is read before the checksum is trusted: an older format's
  // header checksum is a different kernel and can never match, and an
  // upgrade must read as one, not as corruption.
  HeaderFields h = ParseHeader(head);
  if (h.version != kFormatVersion) {
    Rebuild(h.generation + 1,
            "store format version " + std::to_string(h.version) + " != " +
                std::to_string(kFormatVersion) + "; rebuilding");
    return Status::Ok();
  }
  if (!h.checksum_ok) {
    Rebuild(h.generation + 1, "store header checksum mismatch; rebuilding");
    return Status::Ok();
  }
  if (h.ruleset_hash != ruleset_hash) {
    Rebuild(h.generation + 1, "rule-set hash changed; stored findings invalidated");
    return Status::Ok();
  }
  if (h.log_end < kHeaderBytes || h.log_end > size) {
    Rebuild(h.generation + 1, "store committed length out of bounds; rebuilding");
    return Status::Ok();
  }

  Status ms = map_.OpenFd(fd_, static_cast<size_t>(h.log_end));
  if (!ms.ok()) {
    int fd = fd_;
    fd_ = -1;
    ::close(fd);
    MarkUnusable("store mapping failed (" + ms.message() + "); scanning cold");
    return Status::Ok();
  }
  if (!LoadIndex(h.log_end)) {
    Rebuild(h.generation + 1, "corrupt store record; rebuilding");
    return Status::Ok();
  }
  if (size > h.log_end) {
    // Tail past the committed end: a crash between flush and header publish.
    // The committed prefix is fully valid — drop the torn bytes, stay warm.
    if (::ftruncate(fd_, static_cast<off_t>(h.log_end)) == 0) {
      stats_.warning = "dropped " + std::to_string(size - h.log_end) +
                       " uncommitted store bytes from an interrupted scan";
    }
  }
  log_end_ = h.log_end;
  pending_end_ = h.log_end;
  committed_entries_ = stats_.entries;
  stats_.bytes = h.log_end;
  stats_.generation = h.generation;
  return Status::Ok();
}

void FingerprintStore::Rebuild(uint64_t generation, std::string warning) {
  map_.Reset();
  index_.clear();
  appended_.clear();
  file_index_.clear();
  pending_buf_.clear();
  if (::ftruncate(fd_, 0) != 0) {
    int fd = fd_;
    fd_ = -1;
    ::close(fd);
    MarkUnusable("store rebuild failed (" + warning + "); scanning cold");
    return;
  }
  stats_.generation = generation;
  if (!WriteHeader(/*entry_count=*/0, /*log_end=*/kHeaderBytes)) {
    int fd = fd_;
    fd_ = -1;
    ::close(fd);
    MarkUnusable("store header write failed; scanning cold");
    return;
  }
  log_end_ = kHeaderBytes;
  pending_end_ = kHeaderBytes;
  committed_entries_ = 0;
  uncommitted_entries_ = 0;
  stats_.entries = 0;
  stats_.file_entries = 0;
  stats_.bytes = kHeaderBytes;
  stats_.degraded = !warning.empty();
  stats_.warning = std::move(warning);
}

bool FingerprintStore::LoadIndex(uint64_t log_end) {
  index_.clear();
  file_index_.clear();
  uint64_t entries = 0;
  uint64_t file_entries = 0;
  std::string_view log = map_.view();
  uint64_t off = kHeaderBytes;
  while (off < log_end) {
    if (log_end - off < 4) return false;
    uint32_t magic = GetU32(log.data() + off);
    if (magic == kRecordMagic) {
      RecordView r;
      if (!DecodeRecord(log, off, log_end, &r)) return false;
      index_.emplace_back(r.fingerprint, off);
      ++entries;
      off += r.total;
    } else if (magic == kFileRecordMagic) {
      FileRecordView f;
      if (!DecodeFileRecord(log, off, log_end, &f)) return false;
      FileEntry entry;
      entry.size = f.size;
      entry.mtime_ns = f.mtime_ns;
      entry.stmts.reserve(f.stmt_count);
      for (uint32_t i = 0; i < f.stmt_count; ++i) {
        StmtRef s = GetStmtRef(f.stmts + i * kStmtRefBytes);
        // Manifests only ever reference statement records written before
        // them; a forward offset is structural corruption.
        if (s.offset < kHeaderBytes || s.offset >= off) return false;
        entry.stmts.push_back(s);
      }
      file_index_[std::string(f.path)] = std::move(entry);  // last write wins
      ++file_entries;
      off += f.total;
    } else {
      return false;
    }
  }
  // Entries were pushed in log order and the sort is stable, so a collision
  // chain keeps log order.
  RadixSortBy(index_, [](const std::pair<uint64_t, uint64_t>& e) { return e.first; });
  stats_.entries = entries;
  stats_.file_entries = file_entries;
  return true;
}

bool FingerprintStore::WriteHeader(uint64_t entry_count, uint64_t log_end) {
  if (SQLCHECK_FAILPOINT("store_commit")) return false;
  std::string head = EncodeHeader(ruleset_hash_, stats_.generation, entry_count, log_end);
  return PWriteAll(fd_, head.data(), head.size(), 0);
}

void FingerprintStore::MarkUnusable(std::string warning) {
  map_.Reset();
  index_.clear();
  appended_.clear();
  file_index_.clear();
  pending_buf_.clear();
  stats_.degraded = true;
  stats_.warning = std::move(warning);
}

bool FingerprintStore::ProbeStats(std::string_view canonical, uint64_t fingerprint,
                                  std::vector<FindingStat>* out,
                                  uint64_t* template_fingerprint, uint64_t* offset) {
  if (!usable()) return false;
  RecordView r;
  uint64_t off = kNoOffset;
  if (FindRecord(index_, map_.view(), log_end_, canonical, fingerprint, &r, &off)) {
    if (out != nullptr) DecodeFindingStats(r, out);
    if (template_fingerprint != nullptr) *template_fingerprint = r.template_fingerprint;
    if (offset != nullptr) *offset = off;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  auto ap = appended_.find(fingerprint);
  if (ap != appended_.end()) {
    for (const AppendedEntry& entry : ap->second) {
      if (entry.canonical == canonical) {
        if (out != nullptr) *out = entry.stats;
        if (template_fingerprint != nullptr) *template_fingerprint = entry.tmpl;
        if (offset != nullptr) *offset = entry.offset;
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

bool FingerprintStore::ProbeFile(std::string_view rel_path, uint64_t size,
                                 uint64_t mtime_ns, std::vector<StmtRef>* out) {
  if (!usable()) return false;
  auto it = file_index_.find(std::string(rel_path));
  if (it != file_index_.end() && it->second.size == size &&
      it->second.mtime_ns == mtime_ns) {
    *out = it->second.stmts;
    file_hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  file_misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

bool FingerprintStore::ResolveStats(uint64_t offset, uint64_t fingerprint,
                                    std::vector<FindingStat>* out,
                                    uint64_t* template_fingerprint) const {
  RecordView r;
  if (!DecodeRecord(map_.view(), offset, log_end_, &r)) return false;
  if (r.fingerprint != fingerprint) return false;
  if (template_fingerprint != nullptr) *template_fingerprint = r.template_fingerprint;
  if (out != nullptr) DecodeFindingStats(r, out);
  return true;
}

template <typename Finding>
uint64_t FingerprintStore::Append(std::string_view canonical, uint64_t fingerprint,
                                  uint64_t template_fingerprint,
                                  const std::vector<Finding>& findings) {
  if (!usable() || append_broken_) return kNoOffset;
  {
    // First write wins; a duplicate append returns the existing record.
    uint64_t h = hits_.load(std::memory_order_relaxed);
    uint64_t m = misses_.load(std::memory_order_relaxed);
    uint64_t existing = kNoOffset;
    bool present = ProbeStats(canonical, fingerprint, nullptr, nullptr, &existing);
    hits_.store(h, std::memory_order_relaxed);    // dedup probes are internal —
    misses_.store(m, std::memory_order_relaxed);  // keep the scan's counters clean
    if (present) return existing;
  }
  std::string record = EncodeRecord(canonical, fingerprint, template_fingerprint, findings);
  const uint64_t offset = pending_end_;
  pending_buf_.append(record);
  AppendedEntry entry;
  entry.canonical.assign(canonical);
  entry.stats.reserve(findings.size());
  for (const Finding& f : findings) entry.stats.push_back(FindingStat{f.type, f.score});
  entry.offset = offset;
  entry.tmpl = template_fingerprint;
  appended_[fingerprint].push_back(std::move(entry));
  pending_end_ += record.size();
  ++stats_.entries;
  ++stats_.appended;
  ++uncommitted_entries_;
  return offset;
}

template uint64_t FingerprintStore::Append(std::string_view, uint64_t, uint64_t,
                                           const std::vector<StoredFinding>&);
template uint64_t FingerprintStore::Append(std::string_view, uint64_t, uint64_t,
                                           const std::vector<FindingStat>&);

bool FingerprintStore::AppendFile(std::string_view rel_path, uint64_t size,
                                  uint64_t mtime_ns,
                                  const std::vector<StmtRef>& stmts) {
  if (!usable() || append_broken_) return false;
  for (const StmtRef& s : stmts) {
    // Manifests reference statement records already committed or staged
    // ahead of this manifest in the pending buffer.
    if (s.offset < kHeaderBytes || s.offset >= pending_end_) return false;
  }
  std::string record = EncodeFileRecord(rel_path, size, mtime_ns, stmts);
  pending_buf_.append(record);
  pending_end_ += record.size();
  ++stats_.file_entries;
  ++stats_.appended_files;
  return true;
}

Status FingerprintStore::Commit() {
  if (!usable()) return Status::Ok();
  if (pending_buf_.empty()) return Status::Ok();
  bool flushed = false;
  if (SQLCHECK_FAILPOINT("store_append")) {
    // Simulate a torn flush: half the staged bytes land, then the device
    // fails. The header still points at the old committed end, so the torn
    // tail is dropped at the next open.
    PWriteAll(fd_, pending_buf_.data(), pending_buf_.size() / 2, log_end_);
  } else {
    flushed = PWriteAll(fd_, pending_buf_.data(), pending_buf_.size(), log_end_);
  }
  if (!flushed) {
    append_broken_ = true;
    pending_buf_.clear();
    pending_end_ = log_end_;
    uncommitted_entries_ = 0;
    stats_.warning = "store flush failed mid-write; appended entries dropped";
    return Status::Error(stats_.warning);
  }
  if (::fsync(fd_) != 0) {
    return Status::Error(std::string("store fsync failed: ") + std::strerror(errno));
  }
  if (!WriteHeader(committed_entries_ + uncommitted_entries_, pending_end_)) {
    // The flushed bytes sit past the committed end as a torn tail; the next
    // open truncates them. Freeze so a retry cannot half-publish.
    append_broken_ = true;
    pending_buf_.clear();
    pending_end_ = log_end_;
    uncommitted_entries_ = 0;
    stats_.warning =
        "store commit failed: header not published; appended entries will be "
        "dropped at the next open";
    return Status::Error(stats_.warning);
  }
  (void)::fsync(fd_);
  log_end_ = pending_end_;
  committed_entries_ += uncommitted_entries_;
  uncommitted_entries_ = 0;
  pending_buf_.clear();
  return Status::Ok();
}

void FingerprintStore::Close() {
  if (fd_ < 0) return;
  Status s = Commit();
  if (!s.ok() && stats_.warning.empty()) stats_.warning = s.message();
  map_.Reset();
  ::close(fd_);  // releases the flock
  fd_ = -1;
  index_.clear();
  appended_.clear();
  file_index_.clear();
  pending_buf_.clear();
}

StoreStats FingerprintStore::stats() const {
  StoreStats s = stats_;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.file_hits = file_hits_.load(std::memory_order_relaxed);
  s.file_misses = file_misses_.load(std::memory_order_relaxed);
  return s;
}

Status FingerprintStore::Verify(const std::string& path, std::string* summary) {
  std::string buf;
  Status rs = ReadFileToString(path, &buf);
  if (!rs.ok()) return rs;
  if (buf.size() < kHeaderBytes || std::memcmp(buf.data(), kMagic, 8) != 0) {
    return Status::Error("'" + path + "' is not a fingerprint store");
  }
  HeaderFields h = ParseHeader(buf.data());
  if (h.version != kFormatVersion) {  // before the checksum, as in Open
    return Status::Error("format version " + std::to_string(h.version) +
                         " (expected " + std::to_string(kFormatVersion) + ")");
  }
  if (!h.checksum_ok) return Status::Error("header checksum mismatch");
  if (h.log_end < kHeaderBytes || h.log_end > buf.size()) {
    return Status::Error("committed length out of bounds");
  }
  uint64_t entries = 0;
  uint64_t file_entries = 0;
  // Statement records seen so far, offset → fingerprint: manifests must only
  // reference these, with matching fingerprints.
  std::unordered_map<uint64_t, uint64_t> stmt_at;
  uint64_t off = kHeaderBytes;
  while (off < h.log_end) {
    if (h.log_end - off < 4) {
      return Status::Error("corrupt record at byte " + std::to_string(off));
    }
    uint32_t magic = GetU32(buf.data() + off);
    if (magic == kRecordMagic) {
      RecordView r;
      if (!DecodeRecord(buf, off, h.log_end, &r)) {
        return Status::Error("corrupt record at byte " + std::to_string(off));
      }
      stmt_at.emplace(off, r.fingerprint);
      ++entries;
      off += r.total;
    } else if (magic == kFileRecordMagic) {
      FileRecordView f;
      if (!DecodeFileRecord(buf, off, h.log_end, &f)) {
        return Status::Error("corrupt file record at byte " + std::to_string(off));
      }
      for (uint32_t i = 0; i < f.stmt_count; ++i) {
        StmtRef s = GetStmtRef(f.stmts + i * kStmtRefBytes);
        auto it = stmt_at.find(s.offset);
        if (it == stmt_at.end() || it->second != s.exact) {
          return Status::Error("file record at byte " + std::to_string(off) +
                               " references an invalid statement record at byte " +
                               std::to_string(s.offset));
        }
      }
      ++file_entries;
      off += f.total;
    } else {
      return Status::Error("unknown record magic at byte " + std::to_string(off));
    }
  }
  if (entries != h.entry_count) {
    return Status::Error("header records " + std::to_string(h.entry_count) +
                         " entries, log holds " + std::to_string(entries));
  }
  if (summary != nullptr) {
    *summary = "entries=" + std::to_string(entries) +
               " files=" + std::to_string(file_entries) +
               " generation=" + std::to_string(h.generation) +
               " committed_bytes=" + std::to_string(h.log_end) +
               " ruleset=" + std::to_string(h.ruleset_hash);
    if (buf.size() > h.log_end) {
      *summary += " uncommitted_tail_bytes=" + std::to_string(buf.size() - h.log_end);
    }
  }
  return Status::Ok();
}

Status FingerprintStore::Compact(const std::string& path, uint64_t ruleset_hash,
                                 std::string* summary) {
  FingerprintStore store;
  Status s = store.Open(path, ruleset_hash);
  if (!s.ok()) return s;
  if (!store.usable()) {
    return Status::Error("cannot compact: " + store.stats().warning);
  }

  const uint64_t generation = store.stats_.generation + 1;
  std::string_view log = store.map_.view();
  // Pass 1: the last manifest per path — exactly the entry ProbeFile serves
  // — and every statement record, indexed by offset. An ordered map keeps
  // the compacted manifest section deterministic.
  std::map<std::string_view, uint64_t> last_file;
  std::vector<std::pair<uint64_t, RecordView>> records;
  uint64_t off = kHeaderBytes;
  while (off < store.log_end_) {
    uint32_t magic = GetU32(log.data() + off);
    if (magic == kRecordMagic) {
      RecordView r;
      if (!DecodeRecord(log, off, store.log_end_, &r)) break;  // unreachable post-open
      records.emplace_back(off, r);
      off += r.total;
    } else {
      FileRecordView f;
      if (!DecodeFileRecord(log, off, store.log_end_, &f)) break;  // unreachable
      last_file[f.path] = off;
      off += f.total;
    }
  }

  // Pass 2: keep only the statement records a surviving manifest
  // references (a scan reaches records through manifests alone, so the
  // rest — superseded by an edit, or written by a repository that failed —
  // can never be served), in log order, one per fingerprint+canonical.
  std::unordered_set<uint64_t> reachable;
  for (const auto& [rel_path, file_off] : last_file) {
    FileRecordView f;
    if (!DecodeFileRecord(log, file_off, store.log_end_, &f)) continue;
    for (uint32_t i = 0; i < f.stmt_count; ++i) {
      reachable.insert(GetStmtRef(f.stmts + i * kStmtRefBytes).offset);
    }
  }
  std::string out = EncodeHeader(ruleset_hash, generation, 0, 0);  // patched below
  uint64_t kept = 0;
  uint64_t dropped = 0;
  std::unordered_map<uint64_t, std::vector<std::pair<std::string_view, uint64_t>>> seen;
  std::unordered_map<uint64_t, uint64_t> old_to_new;
  for (const auto& [rec_off, r] : records) {
    if (reachable.count(rec_off) == 0) {
      ++dropped;
      continue;
    }
    auto& chain = seen[r.fingerprint];
    uint64_t new_off = 0;
    for (const auto& entry : chain) {
      if (entry.first == r.canonical) new_off = entry.second;
    }
    if (new_off != 0) {
      ++dropped;
    } else {
      new_off = out.size();
      out.append(log.data() + rec_off, r.total);
      chain.emplace_back(r.canonical, new_off);
      ++kept;
    }
    old_to_new[rec_off] = new_off;
  }

  uint64_t kept_files = 0;
  std::vector<StmtRef> refs;
  for (const auto& [rel_path, file_off] : last_file) {
    FileRecordView f;
    if (!DecodeFileRecord(log, file_off, store.log_end_, &f)) continue;
    refs.clear();
    refs.reserve(f.stmt_count);
    bool resolvable = true;
    for (uint32_t i = 0; i < f.stmt_count; ++i) {
      StmtRef r = GetStmtRef(f.stmts + i * kStmtRefBytes);
      auto it = old_to_new.find(r.offset);
      if (it == old_to_new.end()) {
        resolvable = false;  // unreachable: open validated every reference
        break;
      }
      r.offset = it->second;
      refs.push_back(r);
    }
    if (!resolvable) continue;
    out.append(EncodeFileRecord(rel_path, f.size, f.mtime_ns, refs));
    ++kept_files;
  }

  std::string head = EncodeHeader(ruleset_hash, generation, kept, out.size());
  out.replace(0, head.size(), head);

  const std::string tmp = path + ".compact.tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Error("cannot write '" + tmp + "': " + std::strerror(errno));
  }
  bool wrote = PWriteAll(fd, out.data(), out.size(), 0) && ::fsync(fd) == 0;
  ::close(fd);
  if (!wrote || ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::Error("compaction write failed: " + std::string(std::strerror(errno)));
  }
  // `store` still holds the old (now unlinked) inode; closing it must not
  // re-commit over the fresh file, and it cannot — its fd points elsewhere.
  if (summary != nullptr) {
    *summary = "kept=" + std::to_string(kept) + " dropped=" + std::to_string(dropped) +
               " files=" + std::to_string(kept_files) +
               " bytes=" + std::to_string(out.size()) +
               " generation=" + std::to_string(generation);
  }
  return Status::Ok();
}

uint64_t FingerprintStore::RulesetHash(const RuleRegistry& registry) {
  uint64_t h = Fnv1a(&kFormatVersion, sizeof(kFormatVersion));
  for (const auto& rule : registry.rules()) {
    h = Fnv1a(ApSlug(rule->type()), h);
    h = Fnv1a("|", 1, h);
  }
  return h;
}

}  // namespace sqlcheck::persist
