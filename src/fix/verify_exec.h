#pragma once

#include <string>

#include "analysis/context.h"
#include "fix/fix.h"
#include "fix/verify.h"

namespace sqlcheck {

/// \brief Outcome of one Tier-3 differential execution (see VerifyByExecution).
struct ExecCheck {
  enum class Outcome {
    kEquivalent,  ///< Both sides executed; results equivalent under the contract.
    kDivergent,   ///< Both sides executed; results (or states) differ — demote.
    kInfeasible,  ///< The embedded engine could not run the check (unsupported
                  ///< statement shape, no tables to build, ...). Policy decides:
                  ///< --verify-exec on keeps Tier 2, required demotes.
    kSkipped,     ///< Tier 3 does not apply (contract kNotApplicable, additive
                  ///< DDL, or a non-replacing fix).
  };
  Outcome outcome = Outcome::kSkipped;
  std::string note;  ///< Divergence/infeasibility diagnostic ("" otherwise).
};

/// \brief Tier 3 of the rewrite verification pipeline: differential execution
/// on the embedded engine (src/engine/, src/storage/ — the seed's dormant
/// execution machinery, awakened as the product's strongest guarantee).
///
/// The verifier builds an ephemeral Database from the workload's DDL (table
/// schemas come from the Context's catalog; tables the workload never defined
/// are synthesized from the statement's own column references and harvested
/// literals), populates every referenced table — plus its foreign-key parents
/// — with deterministic seeded type-driven rows (literals and LIKE patterns
/// harvested from the statements are planted in the data so predicates select
/// non-trivial row sets), then executes `fix.original_sql` and
/// `fix.statements` through two identically-seeded Executors and compares:
///
///   * SELECT rewrites: the two result sets, row-for-row (kExactOrdered) or
///     as sorted multisets (kMultiset);
///   * DML rewrites: the full table states of two identically-built
///     databases after each side ran (kExactOrdered compares slot order);
///   * kDocumentedDivergence: both sides must *execute* successfully on the
///     populated tables; results are intentionally different and are not
///     compared.
///
/// Every populated table gets the same fixed number of rows (24), so
/// everything is deterministic in (options.seed, the statements themselves):
/// re-running yields the same verdict bit-for-bit, which is what makes the
/// session-level memo sound.
ExecCheck VerifyByExecution(const Fix& fix, EquivalenceContract contract,
                            const Context& context, const ExecVerifyOptions& options);

}  // namespace sqlcheck
