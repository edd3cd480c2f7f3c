// The traced run: replays a workload's exact inputs through each layer's
// public function, with spans recorded from the harness around every call.
// Nothing inside the library is instrumented.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "core/options.h"
#include "storage/database.h"

namespace perfbench {

/// One unit of a workload as the replay sees it: a repository, a tenant's
/// stream, or an audited database with its query log.
struct Unit {
  std::string name;
  std::vector<std::string> scripts;   ///< SQL scripts (split into statements).
  std::vector<std::string> sources;   ///< Host-language files (SQL extracted).
  std::vector<std::string> requests;  ///< Wire request lines; empty = one
                                      ///< `check` per statement.
  const sqlcheck::Database* db = nullptr;
};

/// Every per-layer metric name with its unit, in report order.
std::vector<std::pair<std::string, std::string>> LayerMetricNames();

/// Per-layer values keyed by metric name, as TraceUnits measured them.
using LayerValues = std::map<std::string, double>;

/// The traced run over `units` for about `config.seconds`:
///  * alternating untraced and traced offline passes (SqlCheck AddScript /
///    AttachDatabase / Run / ToJson per unit) give the tracing overhead;
///  * replay passes time each layer's public function on the same inputs.
/// Coverage is the summed layer self time over the untraced pass wall time.
LayerValues TraceUnits(const std::vector<Unit>& units,
                       const sqlcheck::SqlCheckOptions& options, const Config& config);

/// Orders `values` by LayerMetricNames(); throws if any name is missing.
std::vector<Metric> LayerMetrics(const LayerValues& values);

/// Renders `sql` as one line of a host-language file, the way application
/// code embeds queries (the extractor's input shape).
std::string EmbedAsSource(const std::vector<std::string_view>& statements);

}  // namespace perfbench
