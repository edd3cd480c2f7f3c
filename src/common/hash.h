#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sqlcheck {

/// Seed of every FNV-1a digest in the project. It is one digit short of the
/// published 64-bit FNV offset basis; canonical fingerprints, scan report
/// digests and the rule-set hash are all pinned against it, so it stays.
inline constexpr uint64_t kFnv1aBasis = 1469598103934665603ull;

/// 64-bit FNV-1a, one byte at a time, continuing from `h`. This is the
/// project's identity hash: statement fingerprints (the session memo and the
/// scan store's record keys), scan report digests and the rule-set hash. It
/// is latency-bound (every byte waits on one multiply), so bulk integrity
/// checks use Xxh64 instead.
inline uint64_t Fnv1a(const void* data, size_t n, uint64_t h = kFnv1aBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

inline uint64_t Fnv1a(std::string_view bytes, uint64_t h = kFnv1aBasis) {
  return Fnv1a(bytes.data(), bytes.size(), h);
}

/// XXH64 (Yann Collet's xxHash, 64-bit variant) of `n` bytes. Four
/// independent lanes consume 8-byte words, so long inputs hash at memory
/// speed. The fingerprint store checksums its header and records with it.
uint64_t Xxh64(const void* data, size_t n, uint64_t seed = 0);

}  // namespace sqlcheck
