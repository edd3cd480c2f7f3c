#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/arena.h"

namespace sqlcheck {

/// \brief Dense identifier for an interned SQL name. 0 (`kNoName`) means
/// "not interned" / "unknown"; real ids start at 1 and are assigned in
/// first-intern order, so they are stable for the interner's lifetime.
using NameId = uint32_t;
inline constexpr NameId kNoName = 0;

/// \brief Case-insensitive string -> dense NameId table for SQL identifiers
/// (tables, columns, aliases). SQL folds identifier case in every dialect we
/// target, so two spellings that lowercase equal intern to the same id —
/// name equality anywhere downstream becomes one integer compare, and the
/// O(1) `Lower()` view replaces the `ToLower(...)` temporaries the analyzer
/// and rules used to allocate on every lookup.
///
/// Instances are single-threaded by design (one per Context). Lookups
/// (`Find`, `Intern` of an already-known name) never allocate: the probe
/// lowercases into a stack buffer.
class NameInterner {
 public:
  NameInterner();
  NameInterner(NameInterner&&) = default;
  NameInterner& operator=(NameInterner&&) = default;
  NameInterner(const NameInterner&) = delete;
  NameInterner& operator=(const NameInterner&) = delete;

  /// Interns `name` (case-insensitively), returning its id. The first
  /// spelling seen is retained as `Spelling(id)`. Empty names intern to
  /// `kNoName`.
  NameId Intern(std::string_view name);

  /// Looks `name` up without inserting; `kNoName` when never interned.
  /// Allocation-free for names up to LowerProbe's stack capacity (64 bytes).
  NameId Find(std::string_view name) const;

  /// Lowercase form of an interned name. Views stay valid for the
  /// interner's lifetime (storage is arena-backed and never reallocates).
  std::string_view Lower(NameId id) const { return entries_[id].lower; }

  /// The spelling first seen for this name.
  std::string_view Spelling(NameId id) const { return entries_[id].spelling; }

  /// Number of distinct names interned (ids run 1..size()).
  size_t size() const { return entries_.size() - 1; }

  /// Approximate heap footprint: name-byte arena reservation plus the entry
  /// table and hash-map structures. Feeds per-tenant accounting (the server's
  /// `stats` op and SessionLimits::interner_cap_names sizing guidance) — an
  /// estimate, not an allocator-exact byte count.
  size_t memory_bytes() const;

 private:
  struct Entry {
    std::string_view lower;
    std::string_view spelling;
  };

  NameId InternLowered(std::string_view lower, std::string_view spelling);

  std::unique_ptr<Arena> storage_;            ///< Owns all name bytes (stable).
  std::vector<Entry> entries_;                ///< entries_[0] is the kNoName slot.
  std::unordered_map<std::string_view, NameId> map_;  ///< Keys view into storage_.
};

}  // namespace sqlcheck
