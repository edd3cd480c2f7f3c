// The user-study scenario (§8.3): a developer drafts the bike e-commerce
// schema with typical shortcuts; sqlcheck reviews it, suggests fixes, and the
// example applies every mechanical rewrite it gets back, then re-checks.
//
//   $ ./ecommerce_review
#include <cstdio>

#include "core/sqlcheck.h"

using namespace sqlcheck;

int main() {
  const char* draft = R"sql(
CREATE TABLE products (sku VARCHAR(20), name VARCHAR(60), price FLOAT, tag_ids TEXT);
CREATE TABLE accounts (id INTEGER PRIMARY KEY, email VARCHAR(60), password VARCHAR(32));
CREATE TABLE orders (order_id INTEGER PRIMARY KEY, account INTEGER,
                     status ENUM('new', 'paid', 'shipped'), total FLOAT);
SELECT * FROM products WHERE tag_ids LIKE '%,7,%';
SELECT name FROM products WHERE name LIKE '%gravel%';
INSERT INTO orders VALUES (1, 7, 'new', 129.99);
SELECT DISTINCT p.name FROM products p JOIN orders o ON p.sku = o.status;
SELECT sku FROM products ORDER BY RAND() LIMIT 3;
)sql";

  SqlCheck checker;
  checker.AddScript(draft);
  Report report = checker.Run();

  std::printf("== review of the draft schema/queries ==\n%s\n",
              report.ToText().c_str());

  // Apply every mechanical rewrite the repair engine produced.
  std::printf("== fixes a developer can paste straight in ==\n");
  int rewrites = 0;
  for (const auto& finding : report.findings) {
    if (finding.fix.kind != FixKind::kRewrite) continue;
    ++rewrites;
    std::printf("-- fixing: %s\n", ApName(finding.ranked.detection.type));
    for (const auto& stmt : finding.fix.statements) {
      std::printf("%s\n", stmt.c_str());
    }
  }
  std::printf("\n%d mechanical rewrites, %zu textual suggestions\n", rewrites,
              report.size() - static_cast<size_t>(rewrites));
  return report.empty() ? 1 : 0;
}
