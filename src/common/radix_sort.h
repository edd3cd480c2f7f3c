#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sqlcheck {

/// Sorts `items` ascending by the 64-bit `key(item)`: an LSD radix sort, one
/// byte per pass, so it is stable (items with equal keys keep their input
/// order). One counting pass fills all eight histograms, then each pass is a
/// sequential read and one scatter. For tens of thousands of uniformly
/// distributed keys, such as fingerprints, it runs in well under half the
/// time of a comparison sort.
template <typename T, typename Key>
void RadixSortBy(std::vector<T>& items, Key key) {
  std::vector<T> scratch(items.size());
  std::array<std::array<size_t, 256>, 8> counts{};
  for (const T& item : items) {
    const uint64_t k = key(item);
    for (int d = 0; d < 8; ++d) ++counts[d][(k >> (8 * d)) & 0xFF];
  }
  for (int d = 0; d < 8; ++d) {
    size_t sum = 0;
    for (size_t& c : counts[d]) sum += std::exchange(c, sum);
    for (const T& item : items) scratch[counts[d][(key(item) >> (8 * d)) & 0xFF]++] = item;
    items.swap(scratch);  // Eight swaps: the sorted run ends in `items`.
  }
}

}  // namespace sqlcheck
