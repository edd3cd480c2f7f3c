// The paper's case study end to end (§2.1, §8.2): build the GlobaLeaks-style
// deployment, let sqlcheck find/rank/fix its anti-patterns with BOTH query
// and data analysis, apply the headline fix, and show the AP is gone and the
// task query got faster.
//
//   $ ./globaleaks_audit
#include <chrono>
#include <cstdio>

#include "core/sqlcheck.h"
#include "engine/executor.h"
#include "workload/globaleaks.h"

using namespace sqlcheck;
using workload::Globaleaks;

namespace {

double TimeMs(Executor& exec, const std::string& sql_text) {
  auto start = std::chrono::steady_clock::now();
  auto r = exec.ExecuteSql(sql_text);
  double ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                        start)
                  .count();
  if (!r.ok()) std::printf("  (query failed: %s)\n", r.message().c_str());
  return ms;
}

}  // namespace

int main() {
  workload::GlobaleaksOptions scale;
  scale.tenant_count = 500;
  scale.users_per_tenant = 20;

  // 1. Deploy the AP-ridden application.
  Database ap_db("globaleaks");
  Globaleaks::BuildWithAps(&ap_db, scale);
  std::printf("== deployed GlobaLeaks with %zu tenants / %zu users ==\n",
              ap_db.GetTable("Tenants")->live_row_count(),
              ap_db.GetTable("Users")->live_row_count());

  // 2. Audit it: queries + live database.
  SqlCheck checker;
  checker.AddScript(Globaleaks::ApWorkloadScript());
  checker.AttachDatabase(&ap_db);
  Report report = checker.Run();
  std::printf("\n%s\n", report.ToText(6).c_str());

  // 3. Measure the #1 task before the fix.
  Executor ap_exec(&ap_db);
  std::string user = Globaleaks::SomeUserId(scale);
  double before_ms = TimeMs(ap_exec, Globaleaks::Task1Ap(user));

  // 4. Apply the multi-valued-attribute fix (the paper's intersection
  // table): deploy the refactored design instead.
  Database fixed_db("globaleaks_fixed");
  Globaleaks::BuildRefactored(&fixed_db, scale);
  Executor fixed_exec(&fixed_db);
  double after_ms = TimeMs(fixed_exec, Globaleaks::Task1Fixed(user));

  std::printf("Task 1 (tenants of a user): %.3f ms with the AP, %.3f ms fixed "
              "(%.0fx faster)\n",
              before_ms, after_ms, before_ms / std::max(after_ms, 1e-6));

  // 5. Re-audit the refactored deployment: the headline APs are gone.
  SqlCheck recheck;
  recheck.AttachDatabase(&fixed_db);
  Report after = recheck.Run();
  auto counts = after.CountsByType();
  std::printf("\nafter refactor: MVA=%d, EnumeratedTypes=%d (both should be 0)\n",
              counts[AntiPattern::kMultiValuedAttribute],
              counts[AntiPattern::kEnumeratedTypes]);
  return 0;
}
