#include "common/arena.h"

#include <cstring>
#include <mutex>
#include <new>
#include <utility>

#include "common/failpoint.h"

#if defined(__SANITIZE_ADDRESS__)
#define SQLCHECK_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SQLCHECK_ASAN 1
#endif
#endif

#ifdef SQLCHECK_ASAN
#include <sanitizer/asan_interface.h>
#define SQLCHECK_POISON(addr, size) ASAN_POISON_MEMORY_REGION(addr, size)
#define SQLCHECK_UNPOISON(addr, size) ASAN_UNPOISON_MEMORY_REGION(addr, size)
#else
#define SQLCHECK_POISON(addr, size) ((void)(addr), (void)(size))
#define SQLCHECK_UNPOISON(addr, size) ((void)(addr), (void)(size))
#endif

namespace sqlcheck {

namespace {

constexpr size_t AlignUp(size_t n, size_t align) { return (n + align - 1) & ~(align - 1); }

/// Chunks of destroyed arenas, kept for the next arena that asks for the
/// same size. A process that builds and drops sessions in a loop (a linter
/// over many repositories, a server evicting tenants) then recycles one set
/// of chunks. Handing them back to malloc instead lets glibc trim the heap
/// top after every session, and the next session faults the same pages in
/// again. Shared by all threads; only chunk-sized requests take the lock.
class ChunkPool {
 public:
  /// A pooled allocation of exactly `bytes`, or nullptr.
  void* Take(size_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t k = 0; k < free_.size(); ++k) {
      if (free_[k].first != bytes) continue;
      void* chunk = free_[k].second;
      free_[k] = free_.back();
      free_.pop_back();
      pooled_bytes_ -= bytes;
      return chunk;
    }
    return nullptr;
  }

  /// Keeps `chunk` (an allocation of `bytes`) for reuse; false when the pool
  /// is full or cannot grow its list, and the caller frees it. Called from
  /// ~Arena, so it never throws.
  bool Give(void* chunk, size_t bytes) noexcept {
    try {
      std::lock_guard<std::mutex> lock(mu_);
      if (pooled_bytes_ + bytes > kPoolBytes) return false;
      free_.emplace_back(bytes, chunk);
      pooled_bytes_ += bytes;
      return true;
    } catch (...) {
      return false;
    }
  }

 private:
  /// Enough for a few sessions' worth of chunks at once.
  static constexpr size_t kPoolBytes = 4 * Arena::kMaxChunkBytes;

  std::mutex mu_;
  std::vector<std::pair<size_t, void*>> free_;
  size_t pooled_bytes_ = 0;
};

/// Never destroyed: an arena with static storage may die after any other
/// static object, and must still find the pool.
ChunkPool& Pool() {
  static ChunkPool* pool = new ChunkPool;
  return *pool;
}

}  // namespace

Arena::Arena(size_t first_chunk_bytes)
    : next_chunk_bytes_(first_chunk_bytes < 64 ? 64 : first_chunk_bytes) {}

Arena::~Arena() {
  for (Chunk* chunk : chunks_) {
    // A pooled chunk stays poisoned, so a stale pointer into it still traps.
    // Oversized chunks (one giant statement) go straight back to the heap.
    SQLCHECK_POISON(chunk->data(), chunk->capacity);
    if (chunk->capacity <= kMaxChunkBytes &&
        Pool().Give(chunk, sizeof(Chunk) + chunk->capacity)) {
      continue;
    }
    UnpoisonChunk(chunk);
    ::operator delete(chunk);
  }
}

Arena::Chunk* Arena::NewChunk(size_t min_payload) {
  size_t payload = next_chunk_bytes_;
  if (payload < min_payload) payload = AlignUp(min_payload, alignof(std::max_align_t));
  if (next_chunk_bytes_ < kMaxChunkBytes) next_chunk_bytes_ *= 2;

  // Chaos seam: simulated allocation failure. Scoped — fires only under a
  // FailpointScope (the session append paths), where bad_alloc is recovered
  // by retry/quarantine; arenas outside such a scope are unaffected.
  if (SQLCHECK_SCOPED_FAILPOINT("arena_alloc")) throw std::bad_alloc();

  void* raw = Pool().Take(sizeof(Chunk) + payload);
  if (raw == nullptr) raw = ::operator new(sizeof(Chunk) + payload);
  Chunk* chunk = static_cast<Chunk*>(raw);
  chunk->capacity = payload;
  chunks_.push_back(chunk);
  bytes_reserved_ += payload;
  // The whole payload starts poisoned; Allocate unpoisons what it hands out.
  SQLCHECK_POISON(chunk->data(), payload);
  return chunk;
}

void* Arena::Allocate(size_t bytes, size_t align) {
  if (bytes == 0) bytes = 1;
  char* aligned =
      reinterpret_cast<char*>(AlignUp(reinterpret_cast<uintptr_t>(cursor_), align));
  if (aligned == nullptr || aligned + bytes > limit_) {
    // Reuse a retained chunk (Reset keeps them all for steady-state refill
    // cycles) before reserving a new one from the heap.
    Chunk* chunk = nullptr;
    while (++active_ < chunks_.size()) {
      if (chunks_[active_]->capacity >= bytes + align) {
        chunk = chunks_[active_];
        break;
      }
    }
    if (chunk == nullptr) {
      chunk = NewChunk(bytes + align);
      active_ = chunks_.size() - 1;
    }
    cursor_ = chunk->data();
    limit_ = chunk->data() + chunk->capacity;
    aligned = reinterpret_cast<char*>(AlignUp(reinterpret_cast<uintptr_t>(cursor_), align));
  }
  SQLCHECK_UNPOISON(aligned, bytes);
  cursor_ = aligned + bytes;
  bytes_used_ += bytes;
  ++allocation_count_;
  return aligned;
}

std::string_view Arena::Dup(std::string_view s) {
  if (s.empty()) return {};
  char* copy = static_cast<char*>(Allocate(s.size(), 1));
  std::memcpy(copy, s.data(), s.size());
  return std::string_view(copy, s.size());
}

void Arena::Reset() {
  bytes_used_ = 0;
  allocation_count_ = 0;
  // Retain every chunk: a steady Reset/refill loop reuses the same memory
  // and never touches the heap again (the zero-allocation contract the parse
  // path is tested against). Memory is only returned on destruction.
  for (Chunk* chunk : chunks_) {
    SQLCHECK_POISON(chunk->data(), chunk->capacity);
  }
  active_ = 0;
  if (chunks_.empty()) {
    cursor_ = nullptr;
    limit_ = nullptr;
  } else {
    cursor_ = chunks_[0]->data();
    limit_ = chunks_[0]->data() + chunks_[0]->capacity;
  }
}

void Arena::Trim(size_t keep_bytes) {
  if (bytes_used_ != 0) return;  // live allocations would dangle — refuse
  while (chunks_.size() > 1 && bytes_reserved_ > keep_bytes) {
    Chunk* chunk = chunks_.back();
    bytes_reserved_ -= chunk->capacity;
    UnpoisonChunk(chunk);
    ::operator delete(chunk);
    chunks_.pop_back();
  }
  // Re-anchor the cursor (the freed tail may have held it) and restart the
  // doubling schedule from what is left, as a fresh arena of this size would.
  active_ = 0;
  if (chunks_.empty()) {
    cursor_ = nullptr;
    limit_ = nullptr;
  } else {
    cursor_ = chunks_[0]->data();
    limit_ = chunks_[0]->data() + chunks_[0]->capacity;
    next_chunk_bytes_ = chunks_[0]->capacity < kMaxChunkBytes / 2
                            ? chunks_[0]->capacity * 2
                            : kMaxChunkBytes;
  }
}

void Arena::UnpoisonChunk(Chunk* chunk) {
  SQLCHECK_UNPOISON(chunk->data(), chunk->capacity);
}

}  // namespace sqlcheck
