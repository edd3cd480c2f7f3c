#include "server/wire.h"

#include <cstdint>

#include "core/emit.h"

namespace sqlcheck {
namespace server {

namespace {

/// Hand-rolled scanner for the protocol's request subset of JSON: one flat
/// object, string values for the keys we recognize, any scalar/array/object
/// for keys we skip. Small enough to audit; no dependency the container
/// doesn't already have. Positions advance only on success.
class JsonScanner {
 public:
  explicit JsonScanner(std::string_view text) : text_(text) {}

  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\r' || text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  char Peek() {
    SkipWs();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  /// Parses a JSON string (cursor on the opening quote) and decodes its
  /// escapes into `out` as UTF-8.
  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control byte
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t cp = 0;
          if (!ParseHex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: pair required
            uint32_t low = 0;
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return false;
            }
            pos_ += 2;
            if (!ParseHex4(&low) || low < 0xDC00 || low > 0xDFFF) return false;
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return false;  // unpaired low surrogate
          }
          AppendUtf8(cp, out);
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  /// Skips any JSON value (used for unrecognized keys). Depth-bounded so a
  /// hostile deeply-nested payload cannot blow the stack.
  bool SkipValue(int depth = 0) {
    if (depth > 32) return false;
    SkipWs();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '"') {
      std::string ignored;
      return ParseString(&ignored);
    }
    if (c == '{' || c == '[') {
      char close = c == '{' ? '}' : ']';
      ++pos_;
      if (Consume(close)) return true;
      while (true) {
        if (c == '{') {
          std::string ignored;
          if (!ParseString(&ignored) || !Consume(':')) return false;
        }
        if (!SkipValue(depth + 1)) return false;
        if (Consume(close)) return true;
        if (!Consume(',')) return false;
      }
    }
    // Scalar: number / true / false / null — accept the token characters.
    size_t start = pos_;
    while (pos_ < text_.size()) {
      char s = text_[pos_];
      if ((s >= '0' && s <= '9') || (s >= 'a' && s <= 'z') || s == '-' || s == '+' ||
          s == '.' || s == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    return pos_ > start;
  }

 private:
  bool ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return false;
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return false;
      }
    }
    *out = value;
    return true;
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

Request Bad(std::string message) {
  Request request;
  request.ok = false;
  request.error_code = ErrorCode::kBadRequest;
  request.error_message = std::move(message);
  return request;
}

}  // namespace

bool ValidUtf8(std::string_view s) {
  size_t i = 0;
  while (i < s.size()) {
    unsigned char c = static_cast<unsigned char>(s[i]);
    size_t len;
    uint32_t cp;
    if (c < 0x80) {
      ++i;
      continue;
    } else if ((c & 0xE0) == 0xC0) {
      len = 2;
      cp = c & 0x1F;
    } else if ((c & 0xF0) == 0xE0) {
      len = 3;
      cp = c & 0x0F;
    } else if ((c & 0xF8) == 0xF0) {
      len = 4;
      cp = c & 0x07;
    } else {
      return false;  // continuation byte or FE/FF lead
    }
    if (i + len > s.size()) return false;
    for (size_t k = 1; k < len; ++k) {
      unsigned char cont = static_cast<unsigned char>(s[i + k]);
      if ((cont & 0xC0) != 0x80) return false;
      cp = (cp << 6) | (cont & 0x3F);
    }
    // Overlong encodings, surrogate range, and > U+10FFFF are invalid.
    if ((len == 2 && cp < 0x80) || (len == 3 && cp < 0x800) ||
        (len == 4 && cp < 0x10000) || (cp >= 0xD800 && cp <= 0xDFFF) ||
        cp > 0x10FFFF) {
      return false;
    }
    i += len;
  }
  return true;
}

Request ParseRequest(std::string_view line) {
  if (!ValidUtf8(line)) return Bad("request line is not valid UTF-8");
  JsonScanner scanner(line);
  if (!scanner.Consume('{')) return Bad("request must be a JSON object");
  Request request;
  if (!scanner.Consume('}')) {
    while (true) {
      std::string name;
      if (!scanner.ParseString(&name)) return Bad("malformed JSON: expected key");
      if (!scanner.Consume(':')) return Bad("malformed JSON: expected ':'");
      std::string* field = nullptr;
      if (name == "op") {
        field = &request.op;
      } else if (name == "sql") {
        field = &request.sql;
      } else if (name == "format") {
        field = &request.format;
      }
      if (field != nullptr) {
        if (scanner.Peek() != '"') {
          return Bad("field '" + name + "' must be a JSON string");
        }
        if (!scanner.ParseString(field)) {
          return Bad("malformed JSON: bad string for '" + name + "'");
        }
      } else if (!scanner.SkipValue()) {  // unknown members tolerated, must parse
        return Bad("malformed JSON: bad value for '" + name + "'");
      }
      if (scanner.Consume('}')) break;
      if (!scanner.Consume(',')) return Bad("malformed JSON: expected ',' or '}'");
    }
  }
  if (!scanner.AtEnd()) return Bad("trailing bytes after the request object");
  if (request.op.empty()) return Bad("missing required field 'op'");
  request.ok = true;
  return request;
}

std::string ErrorLine(std::string_view code, std::string_view message) {
  std::string line = "{\"ok\": false, \"error\": {\"code\": \"";
  AppendJsonEscaped(&line, code);
  line += "\", \"message\": \"";
  AppendJsonEscaped(&line, message);
  line += "\"}}\n";
  return line;
}

std::string OverloadedLine(uint64_t retry_after_ms) {
  std::string line = "{\"ok\": false, \"error\": {\"code\": \"";
  line += ErrorCode::kOverloaded;
  line += "\", \"message\": \"server overloaded; retry after the hint\"}, "
          "\"retry_after_ms\": ";
  line += std::to_string(retry_after_ms);
  line += "}\n";
  return line;
}

std::string StatementErrorLine(std::string_view code, std::string_view message,
                               std::string_view sql, bool quarantined) {
  constexpr size_t kSqlPrefixBytes = 160;
  std::string_view prefix = sql.substr(0, kSqlPrefixBytes);
  // Never emit a torn UTF-8 sequence: locate the last lead byte; if its
  // sequence runs past the cap, cut before it (a complete trailing sequence
  // is kept whole).
  size_t lead = prefix.size();
  while (lead > 0 && (static_cast<unsigned char>(prefix[lead - 1]) & 0xC0) == 0x80) {
    --lead;
  }
  if (lead > 0 && static_cast<unsigned char>(prefix[lead - 1]) >= 0xC0) {
    const unsigned char first = static_cast<unsigned char>(prefix[lead - 1]);
    const size_t expect = first >= 0xF0 ? 4 : first >= 0xE0 ? 3 : 2;
    if (lead - 1 + expect > prefix.size()) prefix = prefix.substr(0, lead - 1);
  }
  std::string line = "{\"op\": \"statement_error\", \"ok\": false, \"error\": {\"code\": \"";
  AppendJsonEscaped(&line, code);
  line += "\", \"message\": \"";
  AppendJsonEscaped(&line, message);
  line += "\"}, \"sql\": \"";
  AppendJsonEscaped(&line, prefix);
  if (prefix.size() < sql.size()) line += "...";
  line += "\", \"quarantined\": ";
  line += quarantined ? "true" : "false";
  line += "}\n";
  return line;
}

std::string HelloLine(int rule_count) {
  std::string line = "{\"op\": \"hello\", \"ok\": true, \"tool\": \"sqlcheck-server\", "
                     "\"protocol\": ";
  line += std::to_string(kProtocolVersion);
  line += ", \"rules\": ";
  line += std::to_string(rule_count);
  line += "}\n";
  return line;
}

}  // namespace server
}  // namespace sqlcheck
