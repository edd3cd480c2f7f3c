#pragma once

#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <new>
#include <string_view>
#include <utility>
#include <vector>

namespace sqlcheck {

/// \brief Bump-pointer arena: a monotonic allocator backing the zero-copy SQL
/// frontend. Parse trees, interned names, and normalized token payloads are
/// bump-allocated here and freed wholesale when the owning object (Context,
/// TokenBuffer, NameInterner) goes away — no per-node `delete`, no destructor
/// walks. A destroyed arena's chunks go to a bounded process-wide pool that
/// later arenas draw same-sized chunks from, so building and dropping one
/// session after another reuses the same memory.
///
/// Implements `std::pmr::memory_resource`, so the AST's `std::pmr::string` /
/// `std::pmr::vector` members can draw from it directly: an arena-allocated
/// statement's every byte lives in its arena, which is what makes skipping
/// its destructor (see sql::AstDelete) safe.
///
/// Ownership rules:
///  - The arena outlives everything allocated from it. Holders keep it in a
///    `std::unique_ptr` so the arena address stays stable across moves.
///  - `Reset()` invalidates every prior allocation at once but retains all
///    chunks for reuse; it is how per-statement scratch buffers
///    (TokenBuffer) recycle memory without touching the heap.
///  - Not thread-safe: one arena belongs to one thread at a time. Parallel
///    phases only ever *read* arena-backed objects, which is safe.
///
/// Under AddressSanitizer the slack between the bump pointer and the chunk
/// end stays poisoned, so off-the-end reads of arena objects trap exactly
/// like heap overflows would.
class Arena final : public std::pmr::memory_resource {
 public:
  /// `first_chunk_bytes` sizes the initial chunk; later chunks double up to
  /// a 1 MiB cap, keeping waste bounded on both tiny and huge workloads.
  explicit Arena(size_t first_chunk_bytes = kDefaultFirstChunkBytes);
  ~Arena() override;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` aligned to `align` (a power of two).
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t));

  /// Copies `s` into the arena and returns a stable view of the copy.
  std::string_view Dup(std::string_view s);

  /// Constructs a `T` in the arena. The destructor will NOT run — only use
  /// this for types whose members are arena-backed or trivially destructible.
  template <class T, class... Args>
  T* New(Args&&... args) {
    return ::new (Allocate(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
  }

  /// Invalidates all allocations; retains every chunk for reuse, so a
  /// steady-state Reset/refill cycle never touches the heap. Memory is
  /// released only on destruction (to the chunk pool, or the heap once the
  /// pool is full) or by an explicit Trim (to the heap).
  void Reset();

  /// Returns retained chunks to the heap until `bytes_reserved()` drops to
  /// `keep_bytes` (later chunks freed first; the first chunk always stays).
  /// Only legal when nothing is live — i.e. immediately after Reset() — and
  /// checked: a Trim with `bytes_used() != 0` is a no-op. This is the
  /// memory-discipline valve for long-lived per-tenant scratch buffers: one
  /// giant statement must not pin its high-water chunks for the rest of the
  /// session (see AnalysisSession's scratch trimming).
  void Trim(size_t keep_bytes = 0);

  /// Bytes handed out since construction/Reset (live payload).
  size_t bytes_used() const { return bytes_used_; }
  /// Bytes of chunk capacity currently reserved from the heap.
  size_t bytes_reserved() const { return bytes_reserved_; }
  /// Number of Allocate calls since construction/Reset.
  size_t allocation_count() const { return allocation_count_; }

  static constexpr size_t kDefaultFirstChunkBytes = 16 * 1024;
  static constexpr size_t kMaxChunkBytes = 1024 * 1024;

 private:
  struct Chunk {
    size_t capacity;  ///< Payload bytes following this header.
    char* data() { return reinterpret_cast<char*>(this + 1); }
  };

  void* do_allocate(size_t bytes, size_t align) override { return Allocate(bytes, align); }
  void do_deallocate(void* /*p*/, size_t /*bytes*/, size_t /*align*/) override {
    // Monotonic: individual frees are no-ops; Reset()/~Arena reclaim.
  }
  bool do_is_equal(const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

  Chunk* NewChunk(size_t min_payload);
  void UnpoisonChunk(Chunk* chunk);

  std::vector<Chunk*> chunks_;  ///< In creation order; all retained by Reset.
  size_t active_ = 0;           ///< Index of the chunk the cursor is in.
  char* cursor_ = nullptr;
  char* limit_ = nullptr;
  size_t next_chunk_bytes_;
  size_t bytes_used_ = 0;
  size_t bytes_reserved_ = 0;
  size_t allocation_count_ = 0;
};

}  // namespace sqlcheck
