// The four workloads. Each builds its inputs from the seed (timing the
// set-up), checks its outputs on every run, and returns either the
// end-to-end metrics or, with --trace 1, the per-layer metrics.
#pragma once

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

RunResult RunBatchRepos(const Config& config);
RunResult RunServeStream(const Config& config);
RunResult RunScanTree(const Config& config);
RunResult RunAuditDb(const Config& config);

/// One seeded repository: `variants` seed variants of
/// workload::GenerateCorpus's repo, concatenated into one SQL script, plus
/// the generator's host-language source file for the base variant.
struct RepoInput {
  std::string name;
  std::string script;
  std::string source;
  std::vector<std::string> statements;
};
std::vector<RepoInput> MakeRepos(uint64_t seed, int repos, int variants);

}  // namespace perfbench
