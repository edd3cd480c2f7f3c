#include "core/options.h"

namespace sqlcheck {

SqlCheckOptions SqlCheckOptions::IntraQueryOnly() {
  SqlCheckOptions options;
  options.detector.intra_query = true;
  options.detector.inter_query = false;
  options.detector.data_analysis = false;
  return options;
}

SqlCheckOptions SqlCheckOptions::Full() { return SqlCheckOptions{}; }

}  // namespace sqlcheck
