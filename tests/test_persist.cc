// Persistent fingerprint store (persist/fingerprint_store.h): round trips,
// collision safety, every corruption class the open path must absorb
// (foreign file, truncation, flipped bytes, version/rule-set mismatch, torn
// commits via the store_* failpoints), writer locking, and the offline
// Verify/Compact tools. The store's failure contract is the point: every
// recoverable problem degrades to a cold scan with a warning — never a
// crash, never a wrong probe answer.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <algorithm>
#include <fstream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <stdlib.h>
#include <unistd.h>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/radix_sort.h"
#include "persist/fingerprint_store.h"
#include "rules/registry.h"

namespace sqlcheck::persist {
namespace {

class PersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Instance().DisarmAll();
    char tmpl[] = "/tmp/sqlcheck_persist_XXXXXX";
    char* dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    dir_ = dir;
    path_ = dir_ + "/fp.store";
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    std::remove(path_.c_str());
    ::rmdir(dir_.c_str());
  }

  /// Reads the store file's raw bytes.
  std::string ReadRaw() {
    std::ifstream in(path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  /// Flips one byte of the store file in place (size and mtime unchanged
  /// beyond the write itself — this is the "bit rot" corruption class).
  void FlipByte(size_t at) {
    std::string raw = ReadRaw();
    ASSERT_LT(at, raw.size());
    raw[at] = static_cast<char>(raw[at] ^ 0xFF);
    WriteRaw(raw);
  }

  void WriteRaw(const std::string& raw) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(raw.data(), static_cast<std::streamsize>(raw.size()));
  }

  void Truncate(size_t to) {
    ASSERT_EQ(::truncate(path_.c_str(), static_cast<off_t>(to)), 0);
  }

  static StoredFinding MakeFinding(uint8_t type, double score,
                                   const std::string& message) {
    StoredFinding f;
    f.type = type;
    f.source = 1;
    f.has_query = true;
    f.score = score;
    f.table = "users";
    f.column = "tag_ids";
    f.message = message;
    return f;
  }

  static uint64_t Bits(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
  }

  /// Checks that `got` holds each finding's type and bit-exact score, in
  /// order — all a statement record keeps of a finding.
  static void ExpectStats(const std::vector<FindingStat>& got,
                          const std::vector<StoredFinding>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].type, want[i].type) << "finding " << i;
      EXPECT_EQ(Bits(got[i].score), Bits(want[i].score)) << "finding " << i;
    }
  }

  static constexpr uint64_t kHash = 0xfeedface12345678ull;
  std::string dir_;
  std::string path_;
};

TEST_F(PersistTest, RoundTripStatementsAndManifest) {
  // 0.1 + 0.2 has no short decimal form: the score must survive bit-exact.
  std::vector<StoredFinding> findings = {MakeFinding(3, 0.1 + 0.2, "csv list"),
                                         MakeFinding(7, 0.25, "implicit cols")};
  uint64_t rec_a = 0, rec_b = 0;
  {
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    ASSERT_TRUE(store.usable());
    rec_a = store.Append("SELECT * FROM users", 0x1111, 0xaaaa, findings);
    ASSERT_NE(rec_a, FingerprintStore::kNoRecord);
    // "Analyzed, found nothing" is cached too — an empty list is a hit.
    rec_b = store.Append("SELECT id FROM users", 0x2222, 0xbbbb, {});
    ASSERT_NE(rec_b, FingerprintStore::kNoRecord);
    // Re-appending the same statement dedups to the existing record.
    EXPECT_EQ(store.Append("SELECT * FROM users", 0x1111, 0xaaaa, findings), rec_a);
    std::vector<StmtRef> refs = {{0x1111, 0xaaaa, rec_a}, {0x2222, 0xbbbb, rec_b}};
    EXPECT_TRUE(store.AppendFile("repo/queries.sql", 120, 99000111, refs));
    EXPECT_EQ(store.stats().appended, 2u);
    EXPECT_EQ(store.stats().appended_files, 1u);
    store.Close();
  }
  {
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    ASSERT_TRUE(store.usable());
    EXPECT_TRUE(store.stats().warning.empty());
    EXPECT_EQ(store.stats().entries, 2u);
    EXPECT_EQ(store.stats().file_entries, 1u);

    std::vector<FindingStat> stats;
    uint64_t tmpl = 0, rec = 0;
    ASSERT_TRUE(store.ProbeStats("SELECT * FROM users", 0x1111, &stats, &tmpl, &rec));
    ExpectStats(stats, findings);
    EXPECT_EQ(tmpl, 0xaaaaull);
    EXPECT_EQ(rec, rec_a);
    ASSERT_TRUE(store.ProbeStats("SELECT id FROM users", 0x2222, &stats, &tmpl, &rec));
    EXPECT_TRUE(stats.empty());
    EXPECT_EQ(tmpl, 0xbbbbull);
    EXPECT_EQ(rec, rec_b);
    EXPECT_FALSE(store.ProbeStats("SELECT nope", 0x3333, &stats, nullptr, nullptr));

    std::vector<StmtRef> refs;
    ASSERT_TRUE(store.ProbeFile("repo/queries.sql", 120, 99000111, &refs));
    ASSERT_EQ(refs.size(), 2u);
    EXPECT_EQ(refs[0].record, rec_a);
    EXPECT_EQ(refs[1].record, rec_b);
    // Any freshness-key mismatch is a miss — the warm scan re-reads the file.
    EXPECT_FALSE(store.ProbeFile("repo/queries.sql", 121, 99000111, &refs));
    EXPECT_FALSE(store.ProbeFile("repo/queries.sql", 120, 99000112, &refs));

    stats.clear();
    tmpl = 0;
    ASSERT_TRUE(store.ResolveStats(rec_a, 0x1111, &stats, &tmpl));
    ExpectStats(stats, findings);
    EXPECT_EQ(tmpl, 0xaaaaull);
    EXPECT_FALSE(store.ResolveStats(rec_a, 0x9999, &stats, &tmpl));  // fp mismatch
    EXPECT_FALSE(store.ResolveStats(rec_b + 1, 0x1111, &stats, &tmpl));  // no such record
    EXPECT_FALSE(store.ResolveStats(FingerprintStore::kNoRecord, 0x1111, &stats, &tmpl));
    store.Close();
  }
}

TEST_F(PersistTest, ProbesAndDedupSurviveAMidSessionCommit) {
  // Record A is on disk at open; B is appended, then committed mid-session.
  // A must still be found after the commit, both by key and by ordinal, and
  // re-appending it must return its original record instead of a copy.
  const std::vector<StoredFinding> fa = {MakeFinding(1, 0.5, "a")};
  uint64_t rec_a = 0;
  {
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    rec_a = store.Append("SELECT a", 0xa, 0xa1, fa);
    ASSERT_NE(rec_a, FingerprintStore::kNoRecord);
    store.Close();
  }
  FingerprintStore store;
  ASSERT_TRUE(store.Open(path_, kHash).ok());
  const uint64_t rec_b = store.Append("SELECT b", 0xb, 0xb1, {MakeFinding(2, 0.25, "b")});
  ASSERT_NE(rec_b, FingerprintStore::kNoRecord);
  ASSERT_TRUE(store.Commit().ok());

  std::vector<FindingStat> got;
  uint64_t tmpl = 0, rec = 0;
  EXPECT_TRUE(store.ProbeStats("SELECT a", 0xa, &got, &tmpl, &rec));
  ExpectStats(got, fa);
  EXPECT_EQ(tmpl, 0xa1u);
  EXPECT_EQ(rec, rec_a);
  got.clear();
  EXPECT_TRUE(store.ResolveStats(rec_a, 0xa, &got, &tmpl));
  ExpectStats(got, fa);
  // The committed appended record stays probeable too.
  EXPECT_TRUE(store.ProbeStats("SELECT b", 0xb, &got, nullptr, &rec));
  EXPECT_EQ(rec, rec_b);
  EXPECT_TRUE(store.ResolveStats(rec_b, 0xb, &got, nullptr));
  EXPECT_EQ(store.Append("SELECT a", 0xa, 0xa1, fa), rec_a);
  EXPECT_EQ(store.Append("SELECT b", 0xb, 0xb1, got), rec_b);
  store.Close();

  std::string summary;
  ASSERT_TRUE(FingerprintStore::Verify(path_, &summary).ok()) << summary;
  EXPECT_NE(summary.find("entries=2 "), std::string::npos) << summary;
}

TEST_F(PersistTest, FingerprintCollisionNeverSplicesFindings) {
  // Two different canonicals under one fingerprint: the probe must compare
  // text, so each canonical gets its own (type, score) list back.
  std::vector<StoredFinding> fa = {MakeFinding(1, 0.5, "a")};
  std::vector<StoredFinding> fb = {MakeFinding(2, 0.9, "b")};
  FingerprintStore store;
  ASSERT_TRUE(store.Open(path_, kHash).ok());
  uint64_t rec_a = store.Append("SELECT a", 0x42, 0x1, fa);
  uint64_t rec_b = store.Append("SELECT b", 0x42, 0x2, fb);
  ASSERT_NE(rec_a, FingerprintStore::kNoRecord);
  ASSERT_NE(rec_b, FingerprintStore::kNoRecord);
  ASSERT_NE(rec_a, rec_b);
  store.Close();

  ASSERT_TRUE(store.Open(path_, kHash).ok());
  std::vector<FindingStat> got;
  uint64_t tmpl = 0, rec = 0;
  ASSERT_TRUE(store.ProbeStats("SELECT a", 0x42, &got, &tmpl, &rec));
  ExpectStats(got, fa);
  EXPECT_EQ(tmpl, 0x1u);
  EXPECT_EQ(rec, rec_a);
  ASSERT_TRUE(store.ProbeStats("SELECT b", 0x42, &got, &tmpl, &rec));
  ExpectStats(got, fb);
  EXPECT_EQ(tmpl, 0x2u);
  EXPECT_EQ(rec, rec_b);
  EXPECT_FALSE(store.ProbeStats("SELECT c", 0x42, &got, nullptr, nullptr));
  store.Close();
}

TEST_F(PersistTest, RecordsCarryNoFindingText) {
  // A statement record keeps its key and each finding's (type, score);
  // the table, column and message a caller hands over never reach the file.
  const std::vector<std::string> markers = {"TBL_MARKER_7f3a", "COL_MARKER_91c2",
                                            "MSG_MARKER_d04e"};
  std::vector<StoredFinding> findings;
  for (uint8_t type : {2, 5, 11}) {
    StoredFinding f = MakeFinding(type, 0.5 + type, markers[2]);
    f.table = markers[0];
    f.column = markers[1];
    findings.push_back(f);
  }
  const std::string key = "SELECT * FROM t WHERE a = ?";
  {
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    ASSERT_EQ(store.Append(key, 0x5, 0x6, findings), 1u);  // the first record's ordinal
    ASSERT_TRUE(store.Commit().ok());
    store.Close();
  }
  const std::string raw = ReadRaw();
  for (const std::string& marker : markers) {
    EXPECT_EQ(raw.find(marker), std::string::npos) << marker;
  }
  // 28-byte prefix (magic, total, two fingerprints, finding count), the key,
  // 9 bytes per finding, the 8-byte checksum. The record sits right past the
  // 64-byte header.
  const size_t expected = 28 + key.size() + findings.size() * 9 + 8;
  uint32_t total = 0;
  std::memcpy(&total, raw.data() + 64 + 4, 4);
  EXPECT_EQ(total, expected);
  EXPECT_EQ(raw.size(), 64 + expected);
  EXPECT_TRUE(FingerprintStore::Verify(path_, nullptr).ok());

  FingerprintStore store;
  ASSERT_TRUE(store.Open(path_, kHash).ok());
  std::vector<FindingStat> got;
  ASSERT_TRUE(store.ProbeStats(key, 0x5, &got, nullptr, nullptr));
  ExpectStats(got, findings);
  store.Close();
}

TEST_F(PersistTest, FindingCountThatDisagreesWithTheRecordSizeIsCorrupt) {
  {
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    store.Append("SELECT * FROM t", 0x7, 0x7, {MakeFinding(1, 0.5, "x")});
    store.Close();
  }
  // Forge the finding count (u32 at record byte 24) and re-seal the record
  // checksum: only the structural size check can refuse it. The key is what
  // the findings leave, so the count must overflow the 15-byte key plus the
  // one 9-byte finding to be told apart from a shorter key.
  std::string raw = ReadRaw();
  uint32_t total = 0;
  std::memcpy(&total, raw.data() + 64 + 4, 4);
  const uint32_t forged_count = 3;
  std::memcpy(raw.data() + 64 + 24, &forged_count, 4);
  const uint64_t sum = Xxh64(raw.data() + 64, total - 8);
  std::memcpy(raw.data() + 64 + total - 8, &sum, 8);
  WriteRaw(raw);
  EXPECT_FALSE(FingerprintStore::Verify(path_, nullptr).ok());
  FingerprintStore store;
  ASSERT_TRUE(store.Open(path_, kHash).ok());
  EXPECT_TRUE(store.stats().degraded);
  EXPECT_NE(store.stats().warning.find("corrupt"), std::string::npos);
  EXPECT_EQ(store.stats().entries, 0u);
  store.Close();
}

TEST_F(PersistTest, RulesetMismatchInvalidatesAndBumpsGeneration) {
  {
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    store.Append("SELECT 1", 0x1, 0x1, {});
    store.Close();
  }
  FingerprintStore store;
  ASSERT_TRUE(store.Open(path_, kHash + 1).ok());
  EXPECT_TRUE(store.usable());  // Rebuilt, not refused: the scan stays warm-capable.
  EXPECT_TRUE(store.stats().degraded);
  EXPECT_NE(store.stats().warning.find("rule-set"), std::string::npos);
  EXPECT_EQ(store.stats().entries, 0u);
  EXPECT_EQ(store.stats().generation, 2u);
  std::vector<FindingStat> got;
  EXPECT_FALSE(store.ProbeStats("SELECT 1", 0x1, &got, nullptr, nullptr));
  store.Close();
}

TEST_F(PersistTest, ForeignFileIsNeverClobbered) {
  const std::string original = "-- just a SQL script, not a store\nSELECT 1;\n";
  {
    std::ofstream out(path_, std::ios::binary);
    out << original;
  }
  FingerprintStore store;
  ASSERT_TRUE(store.Open(path_, kHash).ok());
  EXPECT_FALSE(store.usable());
  EXPECT_TRUE(store.stats().degraded);
  EXPECT_EQ(store.Append("SELECT 1", 0x1, 0x1, {}), FingerprintStore::kNoRecord);
  store.Close();
  EXPECT_EQ(ReadRaw(), original);  // byte-identical: refused, not rebuilt
}

TEST_F(PersistTest, TruncationRebuildsCleanly) {
  {
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    store.Append("SELECT * FROM t", 0x7, 0x7, {MakeFinding(1, 0.5, "x")});
    store.Close();
  }
  // Below the header (magic intact): rebuild.
  Truncate(32);
  {
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    EXPECT_TRUE(store.usable());
    EXPECT_TRUE(store.stats().degraded);
    EXPECT_EQ(store.stats().entries, 0u);
    // The rebuilt store accepts fresh work.
    EXPECT_NE(store.Append("SELECT 2", 0x2, 0x2, {}), FingerprintStore::kNoRecord);
    store.Close();
  }
  // Header claims more committed bytes than the file holds: rebuild.
  std::string raw = ReadRaw();
  Truncate(raw.size() - 5);
  {
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    EXPECT_TRUE(store.usable());
    EXPECT_TRUE(store.stats().degraded);
    EXPECT_EQ(store.stats().entries, 0u);
    store.Close();
  }
}

TEST_F(PersistTest, FlippedRecordByteRebuildsAndVerifyRejects) {
  {
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    store.Append("SELECT * FROM t", 0x7, 0x7, {MakeFinding(1, 0.5, "x")});
    store.Close();
  }
  ASSERT_TRUE(FingerprintStore::Verify(path_, nullptr).ok());
  FlipByte(64 + 20);  // inside the record body, past the 64-byte header
  EXPECT_FALSE(FingerprintStore::Verify(path_, nullptr).ok());
  FingerprintStore store;
  ASSERT_TRUE(store.Open(path_, kHash).ok());
  EXPECT_TRUE(store.usable());
  EXPECT_TRUE(store.stats().degraded);
  EXPECT_NE(store.stats().warning.find("corrupt"), std::string::npos);
  EXPECT_EQ(store.stats().entries, 0u);
  store.Close();
  ASSERT_TRUE(FingerprintStore::Verify(path_, nullptr).ok());  // rebuilt clean
}

TEST_F(PersistTest, EveryFlippedByteOfARecordOrManifestRebuildsAndVerifyRejects) {
  {
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    uint64_t rec = store.Append("SELECT * FROM t", 0x7, 0x8, {MakeFinding(1, 0.5, "x")});
    ASSERT_NE(rec, FingerprintStore::kNoRecord);
    ASSERT_TRUE(store.AppendFile("repo/", 10, 100, {{0x7, 0x8, rec}}));
    store.Close();
  }
  const std::string original = ReadRaw();
  ASSERT_TRUE(FingerprintStore::Verify(path_, nullptr).ok());
  // Layout: 64-byte header, the statement record, then the manifest; each
  // record's u32 total length sits 4 bytes into it.
  auto total_at = [&](size_t offset) {
    uint32_t total = 0;
    std::memcpy(&total, original.data() + offset + 4, 4);
    return static_cast<size_t>(total);
  };
  const size_t record_end = 64 + total_at(64);
  const size_t manifest_end = record_end + total_at(record_end);
  ASSERT_EQ(manifest_end, original.size());
  for (size_t at = 64; at < manifest_end; ++at) {
    SCOPED_TRACE("flipped byte " + std::to_string(at));
    std::string raw = original;
    raw[at] = static_cast<char>(raw[at] ^ 0xFF);
    WriteRaw(raw);
    EXPECT_FALSE(FingerprintStore::Verify(path_, nullptr).ok());
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    EXPECT_TRUE(store.usable());
    EXPECT_TRUE(store.stats().degraded);
    EXPECT_NE(store.stats().warning.find("corrupt"), std::string::npos);
    EXPECT_EQ(store.stats().entries, 0u);
    EXPECT_EQ(store.stats().file_entries, 0u);
    store.Close();
  }
}

TEST_F(PersistTest, PreviousFormatVersionRebuildsWithAnUpgradeWarning) {
  uint64_t generation = 0;
  {
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    store.Append("SELECT 1", 0x1, 0x1, {});
    generation = store.stats().generation;
    store.Close();
  }
  // A version 5 store's header checksum covers the version field, so a
  // patched one can never pass the checksum: the version must be read first,
  // so the rebuild names the upgrade instead of reporting corruption.
  std::string raw = ReadRaw();
  const uint32_t v5 = 5;
  std::memcpy(raw.data() + 8, &v5, 4);
  WriteRaw(raw);
  Status verify = FingerprintStore::Verify(path_, nullptr);
  EXPECT_FALSE(verify.ok());
  EXPECT_NE(verify.message().find("format version 5"), std::string::npos)
      << verify.message();

  FingerprintStore store;
  ASSERT_TRUE(store.Open(path_, kHash).ok());
  EXPECT_TRUE(store.usable());
  EXPECT_TRUE(store.stats().degraded);
  EXPECT_NE(store.stats().warning.find("store format version 5 != 6"), std::string::npos)
      << store.stats().warning;
  EXPECT_EQ(store.stats().warning.find("checksum"), std::string::npos);
  EXPECT_EQ(store.stats().entries, 0u);
  EXPECT_EQ(store.stats().generation, generation + 1);
  store.Close();
  ASSERT_TRUE(FingerprintStore::Verify(path_, nullptr).ok());  // rebuilt as v6
}

TEST_F(PersistTest, FlippedHeaderByteRebuilds) {
  {
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    store.Append("SELECT 1", 0x1, 0x1, {});
    store.Close();
  }
  FlipByte(16);  // header field: checksum catches it
  FingerprintStore store;
  ASSERT_TRUE(store.Open(path_, kHash).ok());
  EXPECT_TRUE(store.usable());
  EXPECT_TRUE(store.stats().degraded);
  EXPECT_EQ(store.stats().entries, 0u);
  store.Close();
}

TEST_F(PersistTest, TornFlushKeepsCommittedPrefixWarm) {
  {
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    store.Append("SELECT old", 0x1, 0x1, {MakeFinding(1, 0.5, "old")});
    ASSERT_TRUE(store.Commit().ok());

    // The flush of the second batch tears mid-write (store_append simulates
    // half the bytes landing, then the device failing).
    store.Append("SELECT new", 0x2, 0x2, {MakeFinding(2, 0.5, "new")});
    ASSERT_TRUE(FailpointRegistry::Instance().Arm("store_append", "oneshot").ok());
    EXPECT_FALSE(store.Commit().ok());
    EXPECT_FALSE(store.stats().warning.empty());
    // The log is frozen: later appends are refused, a retried commit is a
    // no-op success (nothing pending — the failed batch was dropped).
    EXPECT_EQ(store.Append("SELECT x", 0x3, 0x3, {}), FingerprintStore::kNoRecord);
    EXPECT_TRUE(store.Commit().ok());
    store.Close();
  }
  FingerprintStore store;
  ASSERT_TRUE(store.Open(path_, kHash).ok());
  ASSERT_TRUE(store.usable());
  // The torn tail was truncated; the committed prefix survives warm.
  EXPECT_NE(store.stats().warning.find("uncommitted"), std::string::npos);
  EXPECT_EQ(store.stats().entries, 1u);
  std::vector<FindingStat> got;
  EXPECT_TRUE(store.ProbeStats("SELECT old", 0x1, &got, nullptr, nullptr));
  EXPECT_FALSE(store.ProbeStats("SELECT new", 0x2, &got, nullptr, nullptr));
  store.Close();
  EXPECT_TRUE(FingerprintStore::Verify(path_, nullptr).ok());
}

TEST_F(PersistTest, HeaderPublishFailureDropsTailOnReopen) {
  {
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    store.Append("SELECT old", 0x1, 0x1, {});
    ASSERT_TRUE(store.Commit().ok());
    store.Append("SELECT new", 0x2, 0x2, {});
    // The bulk write lands, fsync succeeds, but the header publish fails:
    // the bytes sit past the committed end as a torn tail.
    ASSERT_TRUE(FailpointRegistry::Instance().Arm("store_commit", "oneshot").ok());
    EXPECT_FALSE(store.Commit().ok());
    store.Close();
  }
  FingerprintStore store;
  ASSERT_TRUE(store.Open(path_, kHash).ok());
  ASSERT_TRUE(store.usable());
  EXPECT_NE(store.stats().warning.find("uncommitted"), std::string::npos);
  EXPECT_EQ(store.stats().entries, 1u);
  std::vector<FindingStat> got;
  EXPECT_TRUE(store.ProbeStats("SELECT old", 0x1, &got, nullptr, nullptr));
  EXPECT_FALSE(store.ProbeStats("SELECT new", 0x2, &got, nullptr, nullptr));
  store.Close();
}

TEST_F(PersistTest, OpenFailpointDegradesToCold) {
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("store_open", "oneshot").ok());
  FingerprintStore store;
  ASSERT_TRUE(store.Open(path_, kHash).ok());  // degrade, not error
  EXPECT_FALSE(store.usable());
  EXPECT_TRUE(store.stats().degraded);
  EXPECT_EQ(store.Append("SELECT 1", 0x1, 0x1, {}), FingerprintStore::kNoRecord);
  store.Close();
}

TEST_F(PersistTest, SecondWriterDegradesThenRecoversAfterClose) {
  FingerprintStore first;
  ASSERT_TRUE(first.Open(path_, kHash).ok());
  ASSERT_TRUE(first.usable());
  first.Append("SELECT 1", 0x1, 0x1, {});

  FingerprintStore second;
  ASSERT_TRUE(second.Open(path_, kHash).ok());
  EXPECT_FALSE(second.usable());  // lock contention → cold scan, no waiting
  EXPECT_NE(second.stats().warning.find("locked"), std::string::npos);

  first.Close();
  ASSERT_TRUE(second.Open(path_, kHash).ok());
  EXPECT_TRUE(second.usable());
  EXPECT_EQ(second.stats().entries, 1u);
  second.Close();
}

TEST_F(PersistTest, AppendFileRejectsInvalidOffsets) {
  FingerprintStore store;
  ASSERT_TRUE(store.Open(path_, kHash).ok());
  uint64_t rec = store.Append("SELECT 1", 0x1, 0x1, {});
  ASSERT_NE(rec, FingerprintStore::kNoRecord);
  // Ordinal 0 is the sentinel; a forward reference past the staged records
  // is equally meaningless. Both must be refused, not stored.
  EXPECT_FALSE(store.AppendFile("a.sql", 1, 1, {{0x1, 0x1, 0}}));
  EXPECT_FALSE(store.AppendFile("a.sql", 1, 1, {{0x1, 0x1, 1u << 20}}));
  EXPECT_TRUE(store.AppendFile("a.sql", 1, 1, {{0x1, 0x1, rec}}));
  store.Close();
  EXPECT_TRUE(FingerprintStore::Verify(path_, nullptr).ok());
}

TEST_F(PersistTest, CompactDropsSupersededManifestsAndRemapsOffsets) {
  // Keys as the scan writes them: a statement-local record keyed by its
  // text, a workload record keyed by its text plus the repository digest.
  const std::string w1 = std::string("SELECT w", 9) + "digest-1";
  const std::string w2 = std::string("SELECT w", 9) + "digest-2";
  // Session 1: records A and W(digest 1) + the repository's manifest; an
  // orphan record no manifest references (a repository that failed).
  {
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    uint64_t a = store.Append("SELECT a", 0xa, 0xa1, {MakeFinding(1, 0.5, "a")});
    uint64_t w = store.Append(w1, 0xc, 0xc1, {MakeFinding(4, 0.5, "w1")});
    store.Append("SELECT orphan", 0xd, 0xd1, {});
    ASSERT_TRUE(store.AppendFile("repo/", 10, 100, {{0xa, 0xa1, a}, {0xc, 0xc1, w}}));
    store.Close();
  }
  // Session 2: the repository changed — statement B lands, W is re-keyed by
  // the new digest, A is shared, and a fresh manifest supersedes the old one
  // (last write wins).
  {
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    uint64_t b = store.Append("SELECT b", 0xb, 0xb1, {MakeFinding(2, 0.5, "b")});
    uint64_t w = store.Append(w2, 0xc, 0xc1, {MakeFinding(4, 0.625, "w2")});
    std::vector<FindingStat> stats;
    uint64_t tmpl = 0, a = 0;
    ASSERT_TRUE(store.ProbeStats("SELECT a", 0xa, &stats, &tmpl, &a));
    ASSERT_TRUE(store.AppendFile("repo/", 20, 200,
                                 {{0xa, 0xa1, a}, {0xc, 0xc1, w}, {0xb, 0xb1, b}}));
    store.Close();
  }
  std::string summary;
  ASSERT_TRUE(FingerprintStore::Verify(path_, &summary).ok());
  EXPECT_NE(summary.find("entries=5 files=2 refs=5 "), std::string::npos) << summary;

  // Only what the surviving manifest reaches stays: A, W(digest 2), B.
  ASSERT_TRUE(FingerprintStore::Compact(path_, kHash, &summary).ok());
  EXPECT_NE(summary.find("kept=3 dropped=2 files=1"), std::string::npos) << summary;
  ASSERT_TRUE(FingerprintStore::Verify(path_, nullptr).ok());
  // The compacted bytes themselves are pinned: records in log order, the
  // manifest remapped, the header under the bumped generation.
  const std::string compacted = ReadRaw();
  EXPECT_EQ(Xxh64(compacted.data(), compacted.size()), 0x1353e2188ee76b6eull);

  FingerprintStore store;
  ASSERT_TRUE(store.Open(path_, kHash).ok());
  EXPECT_EQ(store.stats().entries, 3u);
  EXPECT_EQ(store.stats().file_entries, 1u);
  EXPECT_GE(store.stats().generation, 2u);
  // W(digest 2) is told from W(digest 1) by its score.
  std::vector<FindingStat> got;
  EXPECT_FALSE(store.ProbeStats(w1, 0xc, &got, nullptr, nullptr));
  EXPECT_FALSE(store.ProbeStats("SELECT orphan", 0xd, &got, nullptr, nullptr));
  ASSERT_TRUE(store.ProbeStats(w2, 0xc, &got, nullptr, nullptr));
  ExpectStats(got, {MakeFinding(4, 0.625, "w2")});
  // The surviving manifest is the newer one, with ordinals remapped onto the
  // compacted layout: every reference must still resolve.
  std::vector<StmtRef> refs;
  ASSERT_TRUE(store.ProbeFile("repo/", 20, 200, &refs));
  ASSERT_EQ(refs.size(), 3u);
  for (const StmtRef& r : refs) {
    std::vector<FindingStat> stats;
    uint64_t tmpl = 0;
    EXPECT_TRUE(store.ResolveStats(r.record, r.exact, &stats, &tmpl));
    EXPECT_EQ(tmpl, r.tmpl);
    ASSERT_EQ(stats.size(), 1u);
    if (r.exact == 0xc) {
      EXPECT_EQ(Bits(stats[0].score), Bits(0.625));
    }
  }
  EXPECT_FALSE(store.ProbeFile("repo/", 10, 100, &refs));
  store.Close();
}

TEST_F(PersistTest, AppendFileRefusesABadReference) {
  // The record holds the only copy of a statement's fingerprints, so a
  // manifest reference must name a record that exists, under exactly that
  // record's fingerprints. One bad reference refuses the whole entry.
  FingerprintStore store;
  ASSERT_TRUE(store.Open(path_, kHash).ok());
  const uint64_t a = store.Append("SELECT a", 0xa, 0xa1, {MakeFinding(1, 0.5, "a")});
  const uint64_t b = store.Append("SELECT b", 0xb, 0xb1, {});
  EXPECT_FALSE(store.AppendFile("r/", 1, 1, {{0xa, 0xa1, b + 1}}));  // no such record
  EXPECT_FALSE(store.AppendFile("r/", 1, 1, {{0xa, 0xa1, 0}}));      // the sentinel
  EXPECT_FALSE(store.AppendFile("q/", 1, 1, {{0xdead, 0xa1, a}}));   // wrong exact fp
  EXPECT_FALSE(store.AppendFile("q/", 1, 1, {{0xa, 0xbeef, a}}));    // wrong template fp
  EXPECT_FALSE(store.AppendFile("q/", 1, 1, {{0xa, 0xa1, b}}));      // another record's
  EXPECT_FALSE(store.AppendFile("q/", 1, 1, {{0xa, 0xa1, a}, {0xb, 0xa1, b}}));
  EXPECT_EQ(store.stats().appended_files, 0u);
  EXPECT_TRUE(store.AppendFile("q/", 1, 1, {{0xa, 0xa1, a}, {0xb, 0xb1, b}}));
  store.Close();
  std::string summary;
  ASSERT_TRUE(FingerprintStore::Verify(path_, &summary).ok()) << summary;
  EXPECT_NE(summary.find("entries=2 files=1 refs=2 "), std::string::npos) << summary;
}

TEST_F(PersistTest, ManifestOrdinalOutsideItsRecordsIsCorrupt) {
  // A manifest may only name statement records written before it. One forged
  // (and re-sealed) to name ordinal 0, or a record written after it, is
  // structural corruption: Verify names it and the open rebuilds.
  uint64_t a = 0, c = 0;
  {
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    a = store.Append("SELECT a", 0xa, 0xa1, {MakeFinding(1, 0.5, "a")});
    ASSERT_TRUE(store.AppendFile("repo/", 1, 1, {{0xa, 0xa1, a}}));
    c = store.Append("SELECT c", 0xc, 0xc1, {});
    store.Close();
  }
  const std::string raw = ReadRaw();
  uint32_t a_total = 0;
  std::memcpy(&a_total, raw.data() + 64 + 4, 4);
  const size_t manifest = 64 + a_total;
  uint32_t manifest_total = 0;
  std::memcpy(&manifest_total, raw.data() + manifest + 4, 4);
  for (const uint64_t ordinal : {uint64_t{0}, c}) {
    SCOPED_TRACE("forged ordinal " + std::to_string(ordinal));
    // The reference follows the 32-byte prefix and the 5-byte path.
    std::string forged = raw;
    const uint32_t value = static_cast<uint32_t>(ordinal);
    std::memcpy(forged.data() + manifest + 32 + 5, &value, 4);
    const uint64_t sum = Xxh64(forged.data() + manifest, manifest_total - 8);
    std::memcpy(forged.data() + manifest + manifest_total - 8, &sum, 8);
    WriteRaw(forged);
    Status verify = FingerprintStore::Verify(path_, nullptr);
    EXPECT_NE(verify.message().find("references an invalid statement record"),
              std::string::npos)
        << verify.message();
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    EXPECT_TRUE(store.stats().degraded);
    EXPECT_NE(store.stats().warning.find("corrupt"), std::string::npos);
    EXPECT_EQ(store.stats().file_entries, 0u);
    store.Close();
  }
}

TEST_F(PersistTest, CompactThatFailsToWriteLeavesTheOriginalIntact) {
  // A fault in the compacted store's header write or flush must not replace
  // the original with an empty or torn file: either compaction completes
  // with a store Verify accepts, or the original stays byte-identical.
  for (const char* failpoint : {"store_commit", "store_append"}) {
    SCOPED_TRACE(failpoint);
    std::remove(path_.c_str());
    {
      FingerprintStore store;
      ASSERT_TRUE(store.Open(path_, kHash).ok());
      uint64_t a = store.Append("SELECT a", 0xa, 0xa1, {MakeFinding(1, 0.5, "a")});
      store.Append("SELECT orphan", 0xd, 0xd1, {});
      ASSERT_TRUE(store.AppendFile("repo/", 10, 100, {{0xa, 0xa1, a}}));
      store.Close();
    }
    const std::string original = ReadRaw();
    ASSERT_TRUE(FailpointRegistry::Instance().Arm(failpoint, "oneshot").ok());
    std::string summary;
    const Status compacted = FingerprintStore::Compact(path_, kHash, &summary);
    FailpointRegistry::Instance().DisarmAll();
    if (compacted.ok()) {
      ASSERT_TRUE(FingerprintStore::Verify(path_, &summary).ok()) << summary;
      EXPECT_NE(summary.find("entries=1 files=1 "), std::string::npos) << summary;
    } else {
      EXPECT_EQ(ReadRaw(), original);
    }
    EXPECT_NE(::access((path_ + ".compact.tmp").c_str(), F_OK), 0);
    // With the fault gone, compaction completes.
    ASSERT_TRUE(FingerprintStore::Compact(path_, kHash, &summary).ok()) << summary;
    ASSERT_TRUE(FingerprintStore::Verify(path_, &summary).ok()) << summary;
    EXPECT_NE(summary.find("entries=1 files=1 "), std::string::npos) << summary;
  }
}

TEST_F(PersistTest, CompactUnderDifferentRulesetEmptiesTheStore) {
  {
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    store.Append("SELECT 1", 0x1, 0x1, {});
    store.Close();
  }
  std::string summary;
  ASSERT_TRUE(FingerprintStore::Compact(path_, kHash + 1, &summary).ok());
  FingerprintStore store;
  ASSERT_TRUE(store.Open(path_, kHash + 1).ok());
  EXPECT_EQ(store.stats().entries, 0u);
  store.Close();
}

TEST_F(PersistTest, CompactOfACorruptStoreFailsAndSaysWhy) {
  // Only a rule-set change empties a store on purpose. When the open has to
  // rebuild a corrupt store or one of an older format, its contents are
  // already gone: compaction must fail and name the reason, not report a
  // clean compaction of nothing.
  auto write_store = [&] {
    std::remove(path_.c_str());
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    const uint64_t rec =
        store.Append("SELECT * FROM t", 0x7, 0x8, {MakeFinding(1, 0.5, "x")});
    ASSERT_TRUE(store.AppendFile("repo/", 10, 100, {{0x7, 0x8, rec}}));
    store.Close();
  };
  write_store();
  FlipByte(64 + 20);  // inside the statement record
  std::string summary;
  Status compacted = FingerprintStore::Compact(path_, kHash, &summary);
  EXPECT_FALSE(compacted.ok()) << summary;
  EXPECT_NE(compacted.message().find("corrupt"), std::string::npos)
      << compacted.message();

  write_store();
  std::string raw = ReadRaw();
  const uint32_t v5 = 5;
  std::memcpy(raw.data() + 8, &v5, 4);
  WriteRaw(raw);
  compacted = FingerprintStore::Compact(path_, kHash, &summary);
  EXPECT_FALSE(compacted.ok()) << summary;
  EXPECT_NE(compacted.message().find("store format version 5 != 6"), std::string::npos)
      << compacted.message();
  // The open left a valid empty store behind, which compacts cleanly.
  ASSERT_TRUE(FingerprintStore::Compact(path_, kHash, &summary).ok());
  EXPECT_NE(summary.find("kept=0 "), std::string::npos) << summary;
}

TEST_F(PersistTest, ResolveStatsServesOpenCheckedAndAppendedRecordsAlike) {
  // Record A was committed before this session, so the open checked it; B is
  // appended in the session. Both resolve to their findings, appended to the
  // caller's buffer, and both refuse a wrong fingerprint, kNoRecord and the
  // ordinal one past the last record, appending nothing.
  const std::vector<StoredFinding> fa = {MakeFinding(1, 0.5, "a"),
                                         MakeFinding(3, 0.75, "a")};
  const std::vector<StoredFinding> fb = {MakeFinding(2, 0.25, "b")};
  uint64_t rec_a = 0;
  {
    FingerprintStore store;
    ASSERT_TRUE(store.Open(path_, kHash).ok());
    rec_a = store.Append("SELECT a", 0xa, 0xa1, fa);
    ASSERT_NE(rec_a, FingerprintStore::kNoRecord);
    store.Close();
  }
  FingerprintStore store;
  ASSERT_TRUE(store.Open(path_, kHash).ok());
  std::vector<FindingStat> got;
  auto expect_refused = [&](uint64_t record, uint64_t fingerprint) {
    SCOPED_TRACE("record " + std::to_string(record));
    EXPECT_FALSE(store.ResolveStats(record, fingerprint, &got, nullptr));
    EXPECT_TRUE(got.empty());
  };
  expect_refused(rec_a, 0xb);
  expect_refused(FingerprintStore::kNoRecord, 0xa);
  expect_refused(rec_a + 1, 0xa);

  const uint64_t rec_b = store.Append("SELECT b", 0xb, 0xb1, fb);
  ASSERT_EQ(rec_b, rec_a + 1);
  expect_refused(rec_b, 0xa);
  expect_refused(FingerprintStore::kNoRecord, 0xb);
  expect_refused(rec_b + 1, 0xb);

  for (bool committed : {false, true}) {
    SCOPED_TRACE(committed ? "after a mid-session commit" : "before any commit");
    if (committed) {
      ASSERT_TRUE(store.Commit().ok());
    }
    got.clear();
    uint64_t tmpl = 0;
    ASSERT_TRUE(store.ResolveStats(rec_a, 0xa, &got, &tmpl));
    EXPECT_EQ(tmpl, 0xa1u);
    ExpectStats(got, fa);
    ASSERT_TRUE(store.ResolveStats(rec_b, 0xb, &got, &tmpl));
    EXPECT_EQ(tmpl, 0xb1u);
    std::vector<StoredFinding> both = fa;
    both.insert(both.end(), fb.begin(), fb.end());
    ExpectStats(got, both);
    EXPECT_FALSE(store.ResolveStats(rec_b, 0xa, &got, &tmpl));
    EXPECT_FALSE(store.ResolveStats(rec_b + 1, 0xb, &got, &tmpl));
    ExpectStats(got, both);
  }
  store.Close();
}

TEST_F(PersistTest, RulesetHashTracksRegistryComposition) {
  RuleRegistry all = RuleRegistry::Default();
  EXPECT_NE(FingerprintStore::RulesetHash(all), 0u);
  EXPECT_EQ(FingerprintStore::RulesetHash(all),
            FingerprintStore::RulesetHash(RuleRegistry::Default()));
  // Disabling a rule must change the key: a store written under the full
  // rule set can never replay findings into a run that disabled one.
  RuleRegistry partial = RuleRegistry::Default();
  ASSERT_TRUE(partial.Disable({"Multi-Valued Attribute"}).ok());
  ASSERT_LT(partial.size(), all.size());
  EXPECT_NE(FingerprintStore::RulesetHash(all), FingerprintStore::RulesetHash(partial));
}

TEST(ChecksumTest, Xxh64MatchesPublishedVectors) {
  struct Vector {
    std::string input;
    uint64_t expected;
  };
  const Vector vectors[] = {
      {"", 0xEF46DB3751D8E999ull},
      {"a", 0xD24EC4F1A98C6E5Bull},
      {"abc", 0x44BC2CF5AD770999ull},
      // 39 bytes: one 32-byte stripe through the four lanes, then the tail.
      {"Nobody inspects the spammish repetition", 0xFBCEA83C8A378BF1ull},
  };
  for (const Vector& v : vectors) {
    EXPECT_EQ(Xxh64(v.input.data(), v.input.size()), v.expected) << '"' << v.input << '"';
  }
}

TEST(RadixSortTest, SortsByKeyAndKeepsEqualKeysInInputOrder) {
  // The store's fingerprint index relies on stability: a collision chain
  // must stay in log order. Few distinct keys force long equal-key runs.
  std::mt19937_64 rng(7);
  std::vector<std::pair<uint64_t, uint64_t>> items;
  for (uint64_t i = 0; i < 5000; ++i) {
    const uint64_t key = (rng() % 64) * 0x9E3779B97F4A7C15ull;  // every byte varies
    items.emplace_back(key, i);
  }
  std::vector<std::pair<uint64_t, uint64_t>> expected = items;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  RadixSortBy(items, [](const std::pair<uint64_t, uint64_t>& e) { return e.first; });
  EXPECT_EQ(items, expected);

  std::vector<uint64_t> empty;
  RadixSortBy(empty, [](uint64_t v) { return v; });
  EXPECT_TRUE(empty.empty());
}

}  // namespace
}  // namespace sqlcheck::persist
