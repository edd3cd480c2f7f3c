#include "fix/fix.h"

#include <cctype>

namespace sqlcheck {

namespace {

/// True when [begin, end) of `content` is a whole statement: only
/// whitespace separates it from a `;` or the content's edge on each side.
/// Statements are split on `;` and trimmed, so a statement's own occurrence
/// passes and a match inside a longer statement does not.
bool IsWholeStatement(std::string_view content, size_t begin, size_t end) {
  auto space = [&](size_t i) {
    return std::isspace(static_cast<unsigned char>(content[i])) != 0;
  };
  while (begin > 0 && space(begin - 1)) --begin;
  while (end < content.size() && space(end)) ++end;
  return (begin == 0 || content[begin - 1] == ';') &&
         (end == content.size() || content[end] == ';');
}

}  // namespace

void AppendSpliced(std::string* out, std::string_view text,
                   const std::vector<SourceEdit>& edits) {
  size_t pos = 0;
  for (const SourceEdit& edit : edits) {
    out->append(text.substr(pos, edit.offset - pos));
    out->append(edit.text);
    pos = edit.offset + edit.length;
  }
  out->append(text.substr(pos));
}

size_t FixLocator::Locate(const Fix& fix) {
  if (fix.original_sql.empty()) return std::string_view::npos;
  std::string key = std::to_string(static_cast<int>(fix.type));
  key += '\x1f';
  key += fix.original_sql;
  size_t& from = cursors_[key];
  const size_t length = fix.original_sql.size();
  for (size_t at = content_.find(fix.original_sql, from); at != std::string_view::npos;
       at = content_.find(fix.original_sql, at + 1)) {
    if (IsWholeStatement(content_, at, at + length)) {
      from = at + 1;
      return at;
    }
  }
  return std::string_view::npos;
}

}  // namespace sqlcheck
