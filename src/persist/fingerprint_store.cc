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

/// The first thing wrong with a header of a `size`-byte file, or "" if
/// nothing is. The version is read before the checksum is trusted: an older
/// format's header checksum is a different kernel and can never match, and
/// an upgrade must read as one, not as corruption.
std::string HeaderProblem(const HeaderFields& h, uint64_t size) {
  if (h.version != kFormatVersion) {
    return "store format version " + std::to_string(h.version) +
           " != " + std::to_string(kFormatVersion);
  }
  if (!h.checksum_ok) return "store header checksum mismatch";
  if (h.log_end < kHeaderBytes || h.log_end > size) {
    return "store committed length out of bounds";
  }
  return "";
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

/// Frames one record onto `out`: its magic, its u32 total length (patched
/// once `write_body(out)` has appended the fields), and the XXH64 of it all.
template <typename Body>
void AppendRecord(std::string* out, uint32_t magic, Body write_body) {
  const size_t start = out->size();
  PutU32(out, magic);
  PutU32(out, 0);  // total, patched below
  write_body(out);
  const uint32_t total = static_cast<uint32_t>(out->size() - start + kRecordChecksumBytes);
  std::memcpy(out->data() + start + 4, &total, 4);
  PutU64(out, Xxh64(out->data() + start, out->size() - start));
}

/// Checks the frame of the record at `offset`: it lies within `limit` (and
/// `log`), carries `magic`, has a total length between its `prefix` plus
/// checksum and the size cap, and its checksum matches. Returns that total
/// length, or 0 when any check fails.
uint64_t CheckFrame(std::string_view log, uint64_t offset, uint64_t limit,
                    uint32_t magic, uint64_t prefix) {
  if (limit > log.size() || offset > limit ||
      limit - offset < prefix + kRecordChecksumBytes) {
    return 0;
  }
  const char* p = log.data() + offset;
  if (GetU32(p) != magic) return 0;
  const uint64_t total = GetU32(p + 4);
  if (total < prefix + kRecordChecksumBytes || total > kMaxRecordBytes ||
      total > limit - offset) {
    return 0;
  }
  return GetU64(p + total - 8) == Xxh64(p, total - 8) ? total : 0;
}

/// Zero-copy view of one statement record.
struct RecordView {
  uint64_t total = 0;
  uint64_t fingerprint = 0;
  uint64_t template_fingerprint = 0;
  std::string_view canonical;
  uint32_t finding_count = 0;
  const char* findings = nullptr;  ///< First packed finding.
};

/// Zero-copy view of one file-manifest record.
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

/// Decodes the statement record at `offset` once its frame checks out
/// within `limit`. Every length field is checked before use.
bool DecodeRecord(std::string_view log, uint64_t offset, uint64_t limit,
                  RecordView* out) {
  const uint64_t total = CheckFrame(log, offset, limit, kRecordMagic, kRecordPrefixBytes);
  if (total == 0) return false;
  const char* p = log.data() + offset;
  const uint64_t canonical_bytes = GetU32(p + 24);
  const uint32_t finding_count = GetU32(p + 28);
  const uint64_t payload = total - kRecordPrefixBytes - kRecordChecksumBytes;
  // A checksum-valid record whose lengths disagree with its size (it would
  // take a deliberate forgery, but is cheap to refuse) cannot pass.
  if (canonical_bytes > payload ||
      payload - canonical_bytes != static_cast<uint64_t>(finding_count) * kFindingBytes) {
    return false;
  }
  *out = RecordView{total,
                    GetU64(p + 8),
                    GetU64(p + 16),
                    std::string_view(p + kRecordPrefixBytes, canonical_bytes),
                    finding_count,
                    p + kRecordPrefixBytes + canonical_bytes};
  return true;
}

/// File-record counterpart of DecodeRecord. Statement offsets are range
/// checked by the caller (they must point strictly before this record).
bool DecodeFileRecord(std::string_view log, uint64_t offset, uint64_t limit,
                      FileRecordView* out) {
  const uint64_t total =
      CheckFrame(log, offset, limit, kFileRecordMagic, kFileRecordPrefixBytes);
  if (total == 0) return false;
  const char* p = log.data() + offset;
  const uint64_t path_len = GetU32(p + 8);
  const uint32_t stmt_count = GetU32(p + 12);
  const uint64_t payload = total - kFileRecordPrefixBytes - kRecordChecksumBytes;
  if (path_len > payload ||
      payload - path_len != static_cast<uint64_t>(stmt_count) * kStmtRefBytes) {
    return false;
  }
  *out = FileRecordView{total,
                        std::string_view(p + kFileRecordPrefixBytes, path_len),
                        GetU64(p + 16),
                        GetU64(p + 24),
                        stmt_count,
                        p + kFileRecordPrefixBytes + path_len};
  return true;
}

/// Walks the records of `log` from the header to `end`, handing each to
/// `on_stmt(offset, RecordView)` or `on_file(offset, FileRecordView)`.
/// Stops at the first record that does not decode or that its callback
/// refuses, and returns the offset it stopped at (`end` when every record
/// was accepted).
template <typename OnStmt, typename OnFile>
uint64_t WalkLog(std::string_view log, uint64_t end, OnStmt on_stmt, OnFile on_file) {
  uint64_t off = kHeaderBytes;
  while (off < end) {
    RecordView r;
    FileRecordView f;
    if (DecodeRecord(log, off, end, &r)) {
      if (!on_stmt(off, r)) break;
      off += r.total;
    } else if (DecodeFileRecord(log, off, end, &f)) {
      if (!on_file(off, f)) break;
      off += f.total;
    } else {
      break;
    }
  }
  return off;
}

void DecodeFindingStats(const RecordView& r, std::vector<FindingStat>* out,
                        uint64_t* template_fingerprint) {
  if (template_fingerprint != nullptr) *template_fingerprint = r.template_fingerprint;
  if (out == nullptr) return;
  out->resize(r.finding_count);
  const char* q = r.findings;
  for (FindingStat& f : *out) {
    f.type = static_cast<uint8_t>(q[0]);
    std::memcpy(&f.score, q + 1, 8);
    q += kFindingBytes;
  }
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
    MarkUnusable("store '" + path + "' is locked by another scan; scanning cold");
    return Status::Ok();
  }
  Status s = OpenLocked(ruleset_hash);
  if (!s.ok()) MarkUnusable(s.message());
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
  if (got < static_cast<ssize_t>(sizeof(kMagic)) || std::memcmp(head, kMagic, 8) != 0) {
    // Not our file: never clobber it. The scan runs cold.
    MarkUnusable("store path holds a non-store file; leaving it untouched and scanning cold");
    return Status::Ok();
  }
  if (got < static_cast<ssize_t>(kHeaderBytes)) {
    Rebuild(/*generation=*/1, "store truncated below its header; rebuilding");
    return Status::Ok();
  }

  const HeaderFields h = ParseHeader(head);
  const std::string problem = HeaderProblem(h, size);
  if (!problem.empty()) {
    Rebuild(h.generation + 1, problem + "; rebuilding");
    return Status::Ok();
  }
  if (h.ruleset_hash != ruleset_hash) {
    Rebuild(h.generation + 1, "rule-set hash changed; stored findings invalidated");
    return Status::Ok();
  }

  Status ms = map_.OpenFd(fd_, static_cast<size_t>(h.log_end));
  if (!ms.ok()) {
    MarkUnusable("store mapping failed (" + ms.message() + "); scanning cold");
    return Status::Ok();
  }
  if (!LoadIndex()) {
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
  open_end_ = log_end_ = h.log_end;
  stats_.bytes = h.log_end;
  stats_.generation = h.generation;
  return Status::Ok();
}

void FingerprintStore::ClearState() {
  map_.Reset();
  index_.clear();
  appended_.clear();
  appended_buf_.clear();
  file_index_.clear();
}

void FingerprintStore::Rebuild(uint64_t generation, std::string warning) {
  ClearState();
  stats_.generation = generation;
  stats_.entries = 0;
  stats_.file_entries = 0;
  if (::ftruncate(fd_, 0) != 0) {
    MarkUnusable("store rebuild failed (" + warning + "); scanning cold");
    return;
  }
  if (!WriteHeader(kHeaderBytes)) {
    MarkUnusable("store header write failed; scanning cold");
    return;
  }
  open_end_ = log_end_ = kHeaderBytes;
  stats_.bytes = kHeaderBytes;
  stats_.degraded = !warning.empty();
  stats_.warning = std::move(warning);
}

bool FingerprintStore::LoadIndex() {
  std::string_view log = map_.view();
  const uint64_t stop = WalkLog(
      log, log.size(),
      [&](uint64_t off, const RecordView& r) {
        index_.emplace_back(r.fingerprint, off);
        return true;
      },
      [&](uint64_t off, const FileRecordView& f) {
        FileEntry entry{f.size, f.mtime_ns, {}};
        entry.stmts.reserve(f.stmt_count);
        for (uint32_t i = 0; i < f.stmt_count; ++i) {
          StmtRef s = GetStmtRef(f.stmts + i * kStmtRefBytes);
          // Manifests only ever reference statement records written before
          // them; a forward offset is structural corruption.
          if (s.offset < kHeaderBytes || s.offset >= off) return false;
          entry.stmts.push_back(s);
        }
        file_index_[std::string(f.path)] = std::move(entry);  // last write wins
        ++stats_.file_entries;
        return true;
      });
  if (stop != log.size()) return false;
  // Entries were pushed in log order and the sort is stable, so a collision
  // chain keeps log order.
  RadixSortBy(index_, [](const std::pair<uint64_t, uint64_t>& e) { return e.first; });
  stats_.entries = index_.size();
  return true;
}

bool FingerprintStore::WriteHeader(uint64_t log_end) {
  if (SQLCHECK_FAILPOINT("store_commit")) return false;
  std::string head = EncodeHeader(ruleset_hash_, stats_.generation, stats_.entries, log_end);
  return PWriteAll(fd_, head.data(), head.size(), 0);
}

void FingerprintStore::MarkUnusable(std::string warning) {
  if (fd_ >= 0) ::close(fd_);  // releases the flock
  fd_ = -1;
  ClearState();
  stats_.degraded = true;
  stats_.warning = std::move(warning);
}

Status FingerprintStore::Freeze(std::string warning) {
  append_broken_ = true;
  stats_.warning = std::move(warning);
  return Status::Error(stats_.warning);
}

std::string_view FingerprintStore::BytesAt(uint64_t* offset) const {
  if (*offset < open_end_) return map_.view();
  *offset -= open_end_;
  return appended_buf_;
}

uint64_t FingerprintStore::Find(std::string_view canonical, uint64_t fingerprint,
                                std::vector<FindingStat>* out,
                                uint64_t* template_fingerprint) const {
  auto holds_key = [&](uint64_t offset) {
    uint64_t at = offset;
    std::string_view log = BytesAt(&at);
    RecordView r;
    if (!DecodeRecord(log, at, log.size(), &r) || r.canonical != canonical) return false;
    DecodeFindingStats(r, out, template_fingerprint);
    return true;
  };
  auto it = std::lower_bound(
      index_.begin(), index_.end(), fingerprint,
      [](const std::pair<uint64_t, uint64_t>& e, uint64_t fp) { return e.first < fp; });
  for (; it != index_.end() && it->first == fingerprint; ++it) {
    if (holds_key(it->second)) return it->second;
  }
  auto [first, last] = appended_.equal_range(fingerprint);
  for (; first != last; ++first) {
    if (holds_key(first->second)) return first->second;
  }
  return kNoOffset;
}

bool FingerprintStore::ProbeStats(std::string_view canonical, uint64_t fingerprint,
                                  std::vector<FindingStat>* out,
                                  uint64_t* template_fingerprint, uint64_t* offset) {
  if (!usable()) return false;
  const uint64_t found = Find(canonical, fingerprint, out, template_fingerprint);
  if (found == kNoOffset) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (offset != nullptr) *offset = found;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
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
  std::string_view log = BytesAt(&offset);
  RecordView r;
  if (!DecodeRecord(log, offset, log.size(), &r) || r.fingerprint != fingerprint) {
    return false;
  }
  DecodeFindingStats(r, out, template_fingerprint);
  return true;
}

template <typename Finding>
void FingerprintStore::FrameRecord(std::string_view canonical, uint64_t fingerprint,
                                   uint64_t template_fingerprint,
                                   const std::vector<Finding>& findings,
                                   FramedRecords* out) {
  out->starts_.push_back(out->bytes_.size());
  AppendRecord(&out->bytes_, kRecordMagic, [&](std::string* body) {
    PutU64(body, fingerprint);
    PutU64(body, template_fingerprint);
    PutU32(body, static_cast<uint32_t>(canonical.size()));
    PutU32(body, static_cast<uint32_t>(findings.size()));
    body->append(canonical);
    for (const Finding& f : findings) {
      body->push_back(static_cast<char>(f.type));
      uint64_t score_bits;
      std::memcpy(&score_bits, &f.score, 8);
      PutU64(body, score_bits);
    }
  });
}

uint64_t FingerprintStore::AppendFramed(const FramedRecords& records, size_t index) {
  if (!usable() || append_broken_) return kNoOffset;
  // FrameRecord wrote these bytes, so the fields are read without a
  // re-check; the checksum is verified whenever the record is read back.
  const char* p = records.bytes_.data() + records.starts_[index];
  const uint64_t fingerprint = GetU64(p + 8);
  const std::string_view canonical(p + kRecordPrefixBytes, GetU32(p + 24));
  // First write wins; a duplicate append returns the existing record.
  const uint64_t existing = Find(canonical, fingerprint, nullptr, nullptr);
  if (existing != kNoOffset) return existing;
  const uint64_t offset = open_end_ + appended_buf_.size();
  appended_buf_.append(p, GetU32(p + 4));
  appended_.emplace(fingerprint, offset);
  ++stats_.entries;
  ++stats_.appended;
  return offset;
}

template <typename Finding>
uint64_t FingerprintStore::Append(std::string_view canonical, uint64_t fingerprint,
                                  uint64_t template_fingerprint,
                                  const std::vector<Finding>& findings) {
  FramedRecords one;
  FrameRecord(canonical, fingerprint, template_fingerprint, findings, &one);
  return AppendFramed(one, 0);
}

template void FingerprintStore::FrameRecord(std::string_view, uint64_t, uint64_t,
                                            const std::vector<StoredFinding>&,
                                            FramedRecords*);
template void FingerprintStore::FrameRecord(std::string_view, uint64_t, uint64_t,
                                            const std::vector<FindingStat>&,
                                            FramedRecords*);
template uint64_t FingerprintStore::Append(std::string_view, uint64_t, uint64_t,
                                           const std::vector<StoredFinding>&);
template uint64_t FingerprintStore::Append(std::string_view, uint64_t, uint64_t,
                                           const std::vector<FindingStat>&);

bool FingerprintStore::AppendFile(std::string_view rel_path, uint64_t size,
                                  uint64_t mtime_ns,
                                  const std::vector<StmtRef>& stmts) {
  if (!usable() || append_broken_) return false;
  for (const StmtRef& s : stmts) {
    // Manifests reference statement records already committed or appended
    // ahead of this manifest.
    if (s.offset < kHeaderBytes || s.offset >= open_end_ + appended_buf_.size()) {
      return false;
    }
  }
  AppendRecord(&appended_buf_, kFileRecordMagic, [&](std::string* out) {
    PutU32(out, static_cast<uint32_t>(rel_path.size()));
    PutU32(out, static_cast<uint32_t>(stmts.size()));
    PutU64(out, size);
    PutU64(out, mtime_ns);
    out->append(rel_path);
    for (const StmtRef& s : stmts) {
      PutU64(out, s.exact);
      PutU64(out, s.tmpl);
      PutU64(out, s.offset);
    }
  });
  ++stats_.file_entries;
  ++stats_.appended_files;
  return true;
}

Status FingerprintStore::Commit() {
  if (!usable() || append_broken_) return Status::Ok();
  const uint64_t end = open_end_ + appended_buf_.size();
  if (end == log_end_) return Status::Ok();
  const char* staged = appended_buf_.data() + (log_end_ - open_end_);
  const size_t n = static_cast<size_t>(end - log_end_);
  // The store_append failpoint simulates a torn flush: half the staged bytes
  // land, then the device fails. The header still points at the old
  // committed end, so the torn tail is dropped at the next open.
  const bool torn = SQLCHECK_FAILPOINT("store_append");
  if (!PWriteAll(fd_, staged, torn ? n / 2 : n, log_end_) || torn) {
    return Freeze("store flush failed mid-write; appended entries dropped");
  }
  if (::fsync(fd_) != 0) {
    return Status::Error(std::string("store fsync failed: ") + std::strerror(errno));
  }
  if (!WriteHeader(end)) {
    // The flushed bytes sit past the committed end as a torn tail; the next
    // open truncates them. Freeze so a retry cannot half-publish.
    return Freeze(
        "store commit failed: header not published; appended entries will be "
        "dropped at the next open");
  }
  (void)::fsync(fd_);
  log_end_ = end;
  return Status::Ok();
}

void FingerprintStore::Close() {
  if (fd_ < 0) return;
  Status s = Commit();
  if (!s.ok() && stats_.warning.empty()) stats_.warning = s.message();
  ::close(fd_);  // releases the flock
  fd_ = -1;
  ClearState();
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
  const HeaderFields h = ParseHeader(buf.data());
  const std::string problem = HeaderProblem(h, buf.size());
  if (!problem.empty()) return Status::Error(problem);
  // Statement records seen so far, offset → fingerprint: manifests must only
  // reference these, with matching fingerprints.
  std::unordered_map<uint64_t, uint64_t> stmt_at;
  uint64_t file_entries = 0;
  std::string bad_ref;
  const uint64_t stop = WalkLog(
      buf, h.log_end,
      [&](uint64_t off, const RecordView& r) {
        stmt_at.emplace(off, r.fingerprint);
        return true;
      },
      [&](uint64_t off, const FileRecordView& f) {
        for (uint32_t i = 0; i < f.stmt_count; ++i) {
          StmtRef s = GetStmtRef(f.stmts + i * kStmtRefBytes);
          auto it = stmt_at.find(s.offset);
          if (it == stmt_at.end() || it->second != s.exact) {
            bad_ref = "file record at byte " + std::to_string(off) +
                      " references an invalid statement record at byte " +
                      std::to_string(s.offset);
            return false;
          }
        }
        ++file_entries;
        return true;
      });
  if (!bad_ref.empty()) return Status::Error(bad_ref);
  if (stop != h.log_end) {
    return Status::Error("corrupt record at byte " + std::to_string(stop));
  }
  if (stmt_at.size() != h.entry_count) {
    return Status::Error("header records " + std::to_string(h.entry_count) +
                         " entries, log holds " + std::to_string(stmt_at.size()));
  }
  if (summary != nullptr) {
    *summary = "entries=" + std::to_string(stmt_at.size()) +
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

  // One walk: every statement record, and the last manifest per path —
  // exactly the entry ProbeFile serves. An ordered map keeps the compacted
  // manifest section deterministic.
  std::string_view log = store.map_.view();
  std::vector<std::pair<uint64_t, RecordView>> records;
  std::map<std::string_view, FileRecordView> last_file;
  WalkLog(
      log, log.size(),
      [&](uint64_t off, const RecordView& r) {
        records.emplace_back(off, r);
        return true;
      },
      [&](uint64_t, const FileRecordView& f) {
        last_file[f.path] = f;
        return true;
      });
  // A scan reaches records through manifests alone, so a record no
  // surviving manifest references (superseded by an edit, or written by a
  // repository that failed) can never be served.
  std::unordered_set<uint64_t> reachable;
  for (const auto& [rel_path, f] : last_file) {
    for (uint32_t i = 0; i < f.stmt_count; ++i) {
      reachable.insert(GetStmtRef(f.stmts + i * kStmtRefBytes).offset);
    }
  }

  // The compacted log is written by a fresh store through the same append,
  // commit and header path a scan uses; Append keeps the first record per
  // key. Only a fully committed temp file replaces the original.
  const uint64_t generation = store.stats_.generation + 1;
  const std::string tmp = path + ".compact.tmp";
  ::unlink(tmp.c_str());
  FingerprintStore fresh;
  s = fresh.Open(tmp, ruleset_hash);
  if (s.ok() && fresh.usable()) fresh.Rebuild(generation, "");
  std::unordered_map<uint64_t, uint64_t> old_to_new;
  std::vector<FindingStat> stats;
  for (const auto& [off, r] : records) {
    if (reachable.count(off) == 0) continue;
    DecodeFindingStats(r, &stats, nullptr);
    old_to_new[off] = fresh.Append(r.canonical, r.fingerprint, r.template_fingerprint, stats);
  }
  std::vector<StmtRef> refs;
  for (const auto& [rel_path, f] : last_file) {
    refs.clear();
    for (uint32_t i = 0; i < f.stmt_count; ++i) {
      StmtRef ref = GetStmtRef(f.stmts + i * kStmtRefBytes);
      auto it = old_to_new.find(ref.offset);
      if (it == old_to_new.end()) break;  // Not a record start: drop the manifest.
      ref.offset = it->second;
      refs.push_back(ref);
    }
    if (refs.size() == f.stmt_count) fresh.AppendFile(rel_path, f.size, f.mtime_ns, refs);
  }
  if (s.ok() && !fresh.usable()) s = Status::Error(fresh.stats().warning);
  if (s.ok()) s = fresh.Commit();
  if (s.ok() && (::fsync(fresh.fd_) != 0 || ::rename(tmp.c_str(), path.c_str()) != 0)) {
    s = Status::Error(std::strerror(errno));
  }
  if (!s.ok()) {
    fresh.Close();
    ::unlink(tmp.c_str());
    return Status::Error("compaction write failed: " + s.message());
  }
  // `store` still holds the old (now unlinked) inode; closing it must not
  // re-commit over the fresh file, and it cannot — its fd points elsewhere.
  if (summary != nullptr) {
    *summary = "kept=" + std::to_string(fresh.stats_.appended) +
               " dropped=" + std::to_string(records.size() - fresh.stats_.appended) +
               " files=" + std::to_string(fresh.stats_.appended_files) +
               " bytes=" + std::to_string(fresh.log_end_) +
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
