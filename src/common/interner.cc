#include "common/interner.h"

#include "common/strings.h"

namespace sqlcheck {

NameInterner::NameInterner() : storage_(std::make_unique<Arena>(4 * 1024)) {
  entries_.push_back(Entry{});  // kNoName slot.
}

NameId NameInterner::InternLowered(std::string_view lower, std::string_view spelling) {
  auto it = map_.find(lower);
  if (it != map_.end()) return it->second;
  Entry entry;
  entry.lower = storage_->Dup(lower);
  entry.spelling = lower == spelling ? entry.lower : storage_->Dup(spelling);
  NameId id = static_cast<NameId>(entries_.size());
  entries_.push_back(entry);
  map_.emplace(entry.lower, id);
  return id;
}

NameId NameInterner::Intern(std::string_view name) {
  if (name.empty()) return kNoName;
  return InternLowered(LowerProbe(name).view(), name);
}

NameId NameInterner::Find(std::string_view name) const {
  if (name.empty()) return kNoName;
  auto it = map_.find(LowerProbe(name).view());
  return it == map_.end() ? kNoName : it->second;
}

size_t NameInterner::memory_bytes() const {
  // Arena reservation + dense entry table + an estimate of the node-based
  // hash map (one pointer-linked node per entry, one bucket pointer each).
  return storage_->bytes_reserved() + entries_.capacity() * sizeof(Entry) +
         map_.bucket_count() * sizeof(void*) +
         map_.size() * (sizeof(std::pair<std::string_view, NameId>) + 2 * sizeof(void*));
}

}  // namespace sqlcheck
