#include "sql/block_scan.h"

#include <cstdlib>

namespace sqlcheck::sql::blockscan {

namespace detail {

std::atomic_int g_mode{-1};

int InitModeSlow() {
  const char* env = std::getenv("SQLCHECK_FORCE_SCALAR");
  int mode = (env != nullptr && env[0] != '\0' &&
              !(env[0] == '0' && env[1] == '\0'))
                 ? 1
                 : 0;
  // Racing first calls agree (the env cannot change mid-init), and a test
  // override that already landed must win — hence compare-exchange from the
  // uninitialized state only.
  int expected = -1;
  if (g_mode.compare_exchange_strong(expected, mode, std::memory_order_relaxed)) {
    return mode;
  }
  return expected;
}

}  // namespace detail

void SetForceScalarForTest(bool force) {
  detail::g_mode.store(force ? 1 : 0, std::memory_order_relaxed);
}

const char* FastTierName() {
#if SQLCHECK_BLOCK_SCAN_SSE2
  return "sse2";
#elif SQLCHECK_BLOCK_SCAN_NEON
  return "neon";
#else
  return "scalar";
#endif
}

}  // namespace sqlcheck::sql::blockscan
