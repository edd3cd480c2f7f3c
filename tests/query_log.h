// Test helper: a duplicate-heavy application query log. 90% of it cycles a
// few parameterized statement templates with whitespace, comment and
// keyword-case jitter that the canonical fingerprint folds away; every tenth
// statement is made unique by a fresh literal.
#pragma once

#include <cctype>
#include <cstddef>
#include <string>
#include <vector>

namespace sqlcheck {

inline std::vector<std::string> DuplicateHeavyLog(size_t count) {
  // Shapes of the paper's web-app corpora: multi-join selects with
  // predicates and grouping, correlated subqueries, parameterized CRUD.
  static const char* const kTemplates[] = {
      "SELECT * FROM users u JOIN profiles p ON u.id = p.user_id "
      "LEFT JOIN addresses a ON a.user_id = u.id "
      "WHERE u.created_at > ? AND u.status = 'active' AND u.email LIKE '%@example.com'",
      "SELECT u.id, u.name, (SELECT o.total FROM orders o WHERE o.user_id = u.id "
      "AND o.status = 'open') FROM users u WHERE u.region = ? AND u.age > ? "
      "GROUP BY u.id, u.name ORDER BY u.created_at",
      "SELECT name, password FROM users WHERE name LIKE '%smith' AND password = ?",
      "SELECT DISTINCT u.name, o.total, i.sku FROM users u "
      "JOIN orders o ON u.id = o.user_id JOIN items i ON i.order_id = o.id "
      "WHERE o.created_at BETWEEN ? AND ? AND i.price > 100",
      "INSERT INTO logs (user_id, action, detail, created_at) "
      "SELECT u.id, ?, ?, ? FROM users u WHERE u.last_seen < ?",
      "SELECT * FROM products p JOIN categories c ON p.category_id = c.id "
      "WHERE c.name IN ('a', 'b', 'c') ORDER BY RAND()",
      "SELECT a.x, b.y, c.z FROM a JOIN b ON a.id = b.a_id JOIN c ON b.id = c.b_id "
      "JOIN d ON c.id = d.c_id JOIN e ON d.id = e.d_id JOIN f ON e.id = f.e_id "
      "WHERE a.k = ? AND b.m = ? AND e.n || f.o = ?",
      "UPDATE users SET name = ?, email = ?, updated_at = ? "
      "WHERE id = ? AND status <> 'deleted'",
  };
  constexpr size_t kTemplateCount = sizeof(kTemplates) / sizeof(kTemplates[0]);

  std::vector<std::string> log;
  log.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (i % 10 == 9) {
      log.push_back(
          "SELECT u.name, o.total FROM users u JOIN orders o ON u.id = o.user_id "
          "WHERE o.created_at > '2020-01-01' AND o.id = " +
          std::to_string(i));
      continue;
    }
    std::string s = kTemplates[i % kTemplateCount];
    switch ((i / kTemplateCount) % 5) {
      case 1:
        s += "  ";
        break;
      case 2:
        s += " -- issued by app";
        break;
      case 3:
        s.insert(0, "  ");
        break;
      case 4:  // lower-cased keywords; identifiers and literals already are
        for (char& c : s) {
          c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
        break;
      default:
        break;
    }
    log.push_back(std::move(s));
  }
  return log;
}

}  // namespace sqlcheck
