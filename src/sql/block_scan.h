#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "sql/lexer_detail.h"

// Block scanner: finds span boundaries (identifier runs, whitespace runs,
// digit runs, the next string-special or comment-special byte) in 8/16-byte
// blocks instead of byte-at-a-time. This is the structural-scan stage of the
// frontend: the lexer is the one consumer of the span scanners (the
// statement splitter rides the lexer, and canonical forms are rendered from
// its tokens). The report emitters (core/emit.cc) find the bytes JSON must
// escape with JsonSpecialEnd, which has the scalar and SIMD tiers only.
//
// Two tiers. The lexer picks one per Lex() call (ForceScalar) and calls the
// *Scalar reference or the detail::*Fast / FindByteMemchr scanner directly;
// JsonSpecialEnd checks the mode per call:
//  - scalar: the reference implementation, a byte loop over the
//    lexer_detail character classes. Always available; this is the behavior
//    contract the fast tier must match bit-for-bit (tests/test_block_scan.cc
//    runs them in lockstep over hostile corpora).
//  - SIMD: SSE2 on x86-64 (baseline ISA there, so no cpuid dispatch needed)
//    or NEON on aarch64 — 16 bytes per step. Compile-time gated; other
//    targets run the scalar reference.
// The lexer's word path additionally reads one little-endian u64 with the
// swar:: lane masks below — near a buffer's end, where a 16-byte load would
// overrun, and as the keyword probe key.
//
// Runtime escape hatch: setting SQLCHECK_FORCE_SCALAR (non-empty, not "0")
// in the environment routes every scan through the scalar reference — the
// knob CI uses to keep the fallback green, and the knob an operator flips
// when chasing a suspected fast-path divergence. Bytes >= 0x80 (multi-byte
// UTF-8) are never identifier/space/digit bytes in any tier.
namespace sqlcheck::sql::blockscan {

namespace detail {

/// Tri-state scan mode: -1 = uninitialized, 0 = fast path, 1 = scalar.
/// Initialized from the SQLCHECK_FORCE_SCALAR environment variable on first
/// use; SetForceScalarForTest overrides it at runtime.
extern std::atomic_int g_mode;
int InitModeSlow();

inline int CountTrailingZeros64(uint64_t v) { return __builtin_ctzll(v); }
inline int CountTrailingZeros32(uint32_t v) { return __builtin_ctz(v); }

}  // namespace detail

/// True when every scan must take the scalar reference path (environment
/// SQLCHECK_FORCE_SCALAR or a test override).
inline bool ForceScalar() {
  int mode = detail::g_mode.load(std::memory_order_relaxed);
  if (mode < 0) mode = detail::InitModeSlow();
  return mode != 0;
}

/// Overrides the SQLCHECK_FORCE_SCALAR environment decision (tests and
/// benches flip this to exercise/time both paths in one process).
void SetForceScalarForTest(bool force);

/// Name of the fast tier compiled into this binary: "sse2", "neon", or
/// "scalar" (no SIMD). Reported by the bench.
const char* FastTierName();

// ---------------------------------------------------------------------------
// Scalar reference tier. These define the semantics; every other tier is an
// implementation of exactly these loops.
// ---------------------------------------------------------------------------

/// First index >= pos that is not an identifier byte ([A-Za-z0-9_$]), or
/// s.size(). The caller classifies the *start* byte (identifiers cannot
/// start with a digit or '$'); these runs cover continuation bytes.
inline size_t IdentRunEndScalar(std::string_view s, size_t pos) {
  while (pos < s.size() && lexer_detail::IsIdentChar(s[pos])) ++pos;
  return pos;
}

/// First index >= pos that is not ASCII whitespace (space, \t, \n, \v, \f,
/// \r — the lexer_detail::IsSpace set), or s.size().
inline size_t SpaceRunEndScalar(std::string_view s, size_t pos) {
  while (pos < s.size() && lexer_detail::IsSpace(s[pos])) ++pos;
  return pos;
}

/// First index >= pos that is not a decimal digit, or s.size().
inline size_t DigitRunEndScalar(std::string_view s, size_t pos) {
  while (pos < s.size() && lexer_detail::IsDigit(s[pos])) ++pos;
  return pos;
}

/// First index >= pos holding byte `a`, or s.size().
inline size_t FindByteScalar(std::string_view s, size_t pos, char a) {
  while (pos < s.size() && s[pos] != a) ++pos;
  return pos;
}

/// First index >= pos holding byte `a` or byte `b`, or s.size().
inline size_t FindEitherScalar(std::string_view s, size_t pos, char a, char b) {
  while (pos < s.size() && s[pos] != a && s[pos] != b) ++pos;
  return pos;
}

/// True for the bytes a JSON string literal must escape: control bytes
/// (< 0x20), '"' and '\'. Bytes >= 0x80 (multi-byte UTF-8) pass through.
inline bool IsJsonSpecial(char c) {
  return static_cast<unsigned char>(c) < 0x20 || c == '"' || c == '\\';
}

/// First index >= pos holding a JSON-special byte, or s.size().
inline size_t JsonSpecialEndScalar(std::string_view s, size_t pos) {
  while (pos < s.size() && !IsJsonSpecial(s[pos])) ++pos;
  return pos;
}

// ---------------------------------------------------------------------------
// SWAR lane masks on one uint64_t (8 bytes), for the lexer's word path.
// Little-endian only (the lane -> byte-index mapping below assumes it).
// ---------------------------------------------------------------------------
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define SQLCHECK_BLOCK_SCAN_SWAR 1

namespace swar {

inline constexpr uint64_t kOnes = 0x0101010101010101ull;
inline constexpr uint64_t kHigh = 0x8080808080808080ull;

inline uint64_t Load(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Per-lane mask (MSB of each matching lane set) of lanes whose low 7 bits
/// are >= k, for k in [0, 128]. Carry-free: the classic "hasless" trick
/// borrows across lanes, so it can misreport *which* lane matched; masking
/// the high bit out first keeps each lane's add from overflowing into its
/// neighbor, making the result exact per lane.
inline uint64_t GeLow(uint64_t v, unsigned k) {
  return ((v & ~kHigh) + (128 - k) * kOnes) & kHigh;
}

/// Lanes holding an ASCII byte in [lo, hi] (lo <= hi <= 127). Bytes >= 0x80
/// are excluded explicitly — their low-7 value would otherwise alias into
/// the range.
inline uint64_t InRange(uint64_t v, unsigned lo, unsigned hi) {
  return GeLow(v, lo) & ~GeLow(v, hi + 1) & ~v;
}

/// Lanes equal to byte c (any value 0..255).
inline uint64_t EqLanes(uint64_t v, unsigned char c) {
  uint64_t x = v ^ (kOnes * c);  // matching lanes become 0x00
  return ~GeLow(x, 1) & ~x & kHigh;
}

inline uint64_t IdentMask(uint64_t v) {
  // (c | 0x20) maps A-Z onto a-z and nothing else into [a, z]; digits,
  // '_' (0x5F -> 0x7F) and '$' (0x24) are matched on the raw value.
  uint64_t folded = v | (kOnes * 0x20u);
  return InRange(folded, 'a', 'z') | InRange(v, '0', '9') | EqLanes(v, '_') |
         EqLanes(v, '$');
}

/// Byte index (0-7) of the lowest set lane-MSB in a nonzero mask.
inline size_t FirstLane(uint64_t mask) {
  return static_cast<size_t>(detail::CountTrailingZeros64(mask)) >> 3;
}

}  // namespace swar
#else
#define SQLCHECK_BLOCK_SCAN_SWAR 0
#endif

// ---------------------------------------------------------------------------
// SIMD tier: SSE2 (x86-64 baseline) or NEON (aarch64). 16 bytes per step.
// ---------------------------------------------------------------------------
#if defined(__SSE2__)
#define SQLCHECK_BLOCK_SCAN_SSE2 1
#else
#define SQLCHECK_BLOCK_SCAN_SSE2 0
#endif
#if !SQLCHECK_BLOCK_SCAN_SSE2 && defined(__ARM_NEON)
#define SQLCHECK_BLOCK_SCAN_NEON 1
#else
#define SQLCHECK_BLOCK_SCAN_NEON 0
#endif

#if SQLCHECK_BLOCK_SCAN_SSE2
}  // namespace sqlcheck::sql::blockscan
#include <emmintrin.h>
namespace sqlcheck::sql::blockscan {

namespace simd {

inline __m128i Load(const char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Lanes with an unsigned byte in [lo, hi]: min/max compares sidestep
/// SSE2's signed-only cmpgt, and bytes >= 0x80 fail the `hi` bound for any
/// ASCII range, so no separate high-bit mask is needed.
inline __m128i InRange(__m128i v, unsigned char lo, unsigned char hi) {
  __m128i ge = _mm_cmpeq_epi8(_mm_max_epu8(v, _mm_set1_epi8(static_cast<char>(lo))), v);
  __m128i le = _mm_cmpeq_epi8(_mm_min_epu8(v, _mm_set1_epi8(static_cast<char>(hi))), v);
  return _mm_and_si128(ge, le);
}

inline __m128i IdentMask(__m128i v) {
  __m128i folded = _mm_or_si128(v, _mm_set1_epi8(0x20));
  __m128i word = _mm_or_si128(InRange(folded, 'a', 'z'), InRange(v, '0', '9'));
  __m128i extra = _mm_or_si128(_mm_cmpeq_epi8(v, _mm_set1_epi8('_')),
                               _mm_cmpeq_epi8(v, _mm_set1_epi8('$')));
  return _mm_or_si128(word, extra);
}

inline __m128i SpaceMask(__m128i v) {
  return _mm_or_si128(_mm_cmpeq_epi8(v, _mm_set1_epi8(' ')), InRange(v, 0x09, 0x0D));
}

inline size_t IdentRunEnd(std::string_view s, size_t pos) {
  const char* p = s.data();
  const size_t n = s.size();
  while (pos + 16 <= n) {
    unsigned miss = static_cast<unsigned>(_mm_movemask_epi8(IdentMask(Load(p + pos)))) ^ 0xFFFFu;
    if (miss != 0) return pos + static_cast<size_t>(detail::CountTrailingZeros32(miss));
    pos += 16;
  }
  return IdentRunEndScalar(s, pos);
}

inline size_t SpaceRunEnd(std::string_view s, size_t pos) {
  const char* p = s.data();
  const size_t n = s.size();
  while (pos + 16 <= n) {
    unsigned miss = static_cast<unsigned>(_mm_movemask_epi8(SpaceMask(Load(p + pos)))) ^ 0xFFFFu;
    if (miss != 0) return pos + static_cast<size_t>(detail::CountTrailingZeros32(miss));
    pos += 16;
  }
  return SpaceRunEndScalar(s, pos);
}

inline size_t DigitRunEnd(std::string_view s, size_t pos) {
  const char* p = s.data();
  const size_t n = s.size();
  while (pos + 16 <= n) {
    unsigned miss =
        static_cast<unsigned>(_mm_movemask_epi8(InRange(Load(p + pos), '0', '9'))) ^ 0xFFFFu;
    if (miss != 0) return pos + static_cast<size_t>(detail::CountTrailingZeros32(miss));
    pos += 16;
  }
  return DigitRunEndScalar(s, pos);
}

inline size_t FindEither(std::string_view s, size_t pos, char a, char b) {
  const char* p = s.data();
  const size_t n = s.size();
  const __m128i va = _mm_set1_epi8(a);
  const __m128i vb = _mm_set1_epi8(b);
  while (pos + 16 <= n) {
    __m128i v = Load(p + pos);
    unsigned hit = static_cast<unsigned>(
        _mm_movemask_epi8(_mm_or_si128(_mm_cmpeq_epi8(v, va), _mm_cmpeq_epi8(v, vb))));
    if (hit != 0) return pos + static_cast<size_t>(detail::CountTrailingZeros32(hit));
    pos += 16;
  }
  return FindEitherScalar(s, pos, a, b);
}

inline unsigned JsonSpecialMask(const char* p) {
  const __m128i v = Load(p);
  const __m128i quote = _mm_cmpeq_epi8(v, _mm_set1_epi8('"'));
  const __m128i backslash = _mm_cmpeq_epi8(v, _mm_set1_epi8('\\'));
  const __m128i hit = _mm_or_si128(InRange(v, 0x00, 0x1F), _mm_or_si128(quote, backslash));
  return static_cast<unsigned>(_mm_movemask_epi8(hit));
}

inline size_t JsonSpecialEnd(std::string_view s, size_t pos) {
  const char* p = s.data();
  const size_t n = s.size();
  while (pos + 16 <= n) {
    unsigned mask = JsonSpecialMask(p + pos);
    if (mask != 0) return pos + static_cast<size_t>(detail::CountTrailingZeros32(mask));
    pos += 16;
  }
  if (pos == n || n < 16) return JsonSpecialEndScalar(s, pos);
  // Short tail of a long string: one overlapping load of the last 16 bytes,
  // with the lanes before `pos` masked off.
  const size_t base = n - 16;
  unsigned mask = JsonSpecialMask(p + base) >> (pos - base);
  return mask != 0 ? pos + static_cast<size_t>(detail::CountTrailingZeros32(mask)) : n;
}

}  // namespace simd
#endif  // SQLCHECK_BLOCK_SCAN_SSE2

#if SQLCHECK_BLOCK_SCAN_NEON
}  // namespace sqlcheck::sql::blockscan
#include <arm_neon.h>
namespace sqlcheck::sql::blockscan {

namespace simd {

/// 4 bits per lane, in lane order: the vshrn narrowing trick — the standard
/// NEON movemask substitute. First match = ctz(mask) / 4.
inline uint64_t MoveMask(uint8x16_t m) {
  uint8x8_t narrowed = vshrn_n_u16(vreinterpretq_u16_u8(m), 4);
  return vget_lane_u64(vreinterpret_u64_u8(narrowed), 0);
}

inline uint8x16_t Load(const char* p) {
  return vld1q_u8(reinterpret_cast<const uint8_t*>(p));
}

inline uint8x16_t InRange(uint8x16_t v, unsigned char lo, unsigned char hi) {
  return vandq_u8(vcgeq_u8(v, vdupq_n_u8(lo)), vcleq_u8(v, vdupq_n_u8(hi)));
}

inline uint8x16_t IdentMask(uint8x16_t v) {
  uint8x16_t folded = vorrq_u8(v, vdupq_n_u8(0x20));
  uint8x16_t word = vorrq_u8(InRange(folded, 'a', 'z'), InRange(v, '0', '9'));
  uint8x16_t extra =
      vorrq_u8(vceqq_u8(v, vdupq_n_u8('_')), vceqq_u8(v, vdupq_n_u8('$')));
  return vorrq_u8(word, extra);
}

inline uint8x16_t SpaceMask(uint8x16_t v) {
  return vorrq_u8(vceqq_u8(v, vdupq_n_u8(' ')), InRange(v, 0x09, 0x0D));
}

inline size_t IdentRunEnd(std::string_view s, size_t pos) {
  const char* p = s.data();
  const size_t n = s.size();
  while (pos + 16 <= n) {
    uint64_t miss = ~MoveMask(IdentMask(Load(p + pos)));
    if (miss != 0) return pos + (static_cast<size_t>(detail::CountTrailingZeros64(miss)) >> 2);
    pos += 16;
  }
  return IdentRunEndScalar(s, pos);
}

inline size_t SpaceRunEnd(std::string_view s, size_t pos) {
  const char* p = s.data();
  const size_t n = s.size();
  while (pos + 16 <= n) {
    uint64_t miss = ~MoveMask(SpaceMask(Load(p + pos)));
    if (miss != 0) return pos + (static_cast<size_t>(detail::CountTrailingZeros64(miss)) >> 2);
    pos += 16;
  }
  return SpaceRunEndScalar(s, pos);
}

inline size_t DigitRunEnd(std::string_view s, size_t pos) {
  const char* p = s.data();
  const size_t n = s.size();
  while (pos + 16 <= n) {
    uint64_t miss = ~MoveMask(InRange(Load(p + pos), '0', '9'));
    if (miss != 0) return pos + (static_cast<size_t>(detail::CountTrailingZeros64(miss)) >> 2);
    pos += 16;
  }
  return DigitRunEndScalar(s, pos);
}

inline size_t FindEither(std::string_view s, size_t pos, char a, char b) {
  const char* p = s.data();
  const size_t n = s.size();
  const uint8x16_t va = vdupq_n_u8(static_cast<uint8_t>(a));
  const uint8x16_t vb = vdupq_n_u8(static_cast<uint8_t>(b));
  while (pos + 16 <= n) {
    uint8x16_t v = Load(p + pos);
    uint64_t hit = MoveMask(vorrq_u8(vceqq_u8(v, va), vceqq_u8(v, vb)));
    if (hit != 0) return pos + (static_cast<size_t>(detail::CountTrailingZeros64(hit)) >> 2);
    pos += 16;
  }
  return FindEitherScalar(s, pos, a, b);
}

/// Byte index (0-15) of the first set lane in a nonzero MoveMask result.
inline size_t FirstLane(uint64_t mask) {
  return static_cast<size_t>(detail::CountTrailingZeros64(mask)) >> 2;
}

inline uint64_t JsonSpecialMask(const char* p) {
  const uint8x16_t v = Load(p);
  const uint8x16_t quote = vceqq_u8(v, vdupq_n_u8('"'));
  const uint8x16_t backslash = vceqq_u8(v, vdupq_n_u8('\\'));
  const uint8x16_t control = vcltq_u8(v, vdupq_n_u8(0x20));
  return MoveMask(vorrq_u8(control, vorrq_u8(quote, backslash)));
}

inline size_t JsonSpecialEnd(std::string_view s, size_t pos) {
  const char* p = s.data();
  const size_t n = s.size();
  while (pos + 16 <= n) {
    uint64_t mask = JsonSpecialMask(p + pos);
    if (mask != 0) return pos + FirstLane(mask);
    pos += 16;
  }
  if (pos == n || n < 16) return JsonSpecialEndScalar(s, pos);
  // Short tail of a long string: one overlapping load of the last 16 bytes,
  // with the lanes before `pos` masked off.
  const size_t base = n - 16;
  uint64_t mask = JsonSpecialMask(p + base) >> (4 * (pos - base));
  return mask != 0 ? pos + FirstLane(mask) : n;
}

}  // namespace simd
#endif  // SQLCHECK_BLOCK_SCAN_NEON

#define SQLCHECK_BLOCK_SCAN_SIMD (SQLCHECK_BLOCK_SCAN_SSE2 || SQLCHECK_BLOCK_SCAN_NEON)

// ---------------------------------------------------------------------------
// Fast-tier entry points — what the lexer calls when not forced scalar.
// ---------------------------------------------------------------------------

namespace detail {

inline size_t IdentRunEndFast(std::string_view s, size_t pos) {
#if SQLCHECK_BLOCK_SCAN_SIMD
  return simd::IdentRunEnd(s, pos);
#else
  return IdentRunEndScalar(s, pos);
#endif
}

inline size_t SpaceRunEndFast(std::string_view s, size_t pos) {
#if SQLCHECK_BLOCK_SCAN_SIMD
  return simd::SpaceRunEnd(s, pos);
#else
  return SpaceRunEndScalar(s, pos);
#endif
}

inline size_t DigitRunEndFast(std::string_view s, size_t pos) {
#if SQLCHECK_BLOCK_SCAN_SIMD
  return simd::DigitRunEnd(s, pos);
#else
  return DigitRunEndScalar(s, pos);
#endif
}

inline size_t FindEitherFast(std::string_view s, size_t pos, char a, char b) {
#if SQLCHECK_BLOCK_SCAN_SIMD
  return simd::FindEither(s, pos, a, b);
#else
  return FindEitherScalar(s, pos, a, b);
#endif
}

}  // namespace detail

/// Fast-tier FindByte: memchr (already vectorized in every libc we build
/// against).
inline size_t FindByteMemchr(std::string_view s, size_t pos, char a) {
  if (pos >= s.size()) return s.size();
  const void* hit = std::memchr(s.data() + pos, static_cast<unsigned char>(a),
                                s.size() - pos);
  return hit == nullptr ? s.size()
                        : static_cast<size_t>(static_cast<const char*>(hit) - s.data());
}

/// First index >= pos holding a byte a JSON string literal must escape
/// (IsJsonSpecial), or s.size() — the scan behind the report emitters'
/// escaping.
inline size_t JsonSpecialEnd(std::string_view s, size_t pos) {
#if SQLCHECK_BLOCK_SCAN_SIMD
  if (!ForceScalar()) return simd::JsonSpecialEnd(s, pos);
#endif
  return JsonSpecialEndScalar(s, pos);
}

}  // namespace sqlcheck::sql::blockscan
