// Request framing and response reading over server::LineClient.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/emit.h"
#include "server/client.h"

namespace perfbench {

inline std::string CheckRequest(std::string_view sql) {
  return R"({"op": "check", "sql": ")" + sqlcheck::JsonEscape(sql) + "\"}";
}

inline bool IsFindingLine(std::string_view line) {
  return line.starts_with(R"({"op": "finding")");
}

inline bool IsStreamLine(std::string_view line) {
  return IsFindingLine(line) || line.starts_with(R"({"op": "statement_error")");
}

/// Reads one full response: stream lines (collected into `findings` when
/// non-null) up to the terminal line, which lands in `terminal`.
inline bool ReadResponse(sqlcheck::server::LineClient* client, std::string* terminal,
                         std::vector<std::string>* findings = nullptr) {
  std::string line;
  while (client->ReadLine(&line).ok()) {
    if (IsStreamLine(line)) {
      if (findings != nullptr && IsFindingLine(line)) findings->push_back(line);
      continue;
    }
    *terminal = std::move(line);
    return true;
  }
  return false;
}

}  // namespace perfbench
