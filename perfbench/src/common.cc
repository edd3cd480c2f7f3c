#include "common.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "rules/rule.h"

namespace perfbench {

std::vector<Metric> EndToEndMetrics(const EndToEnd& e) {
  return {
      {"setup_s", e.setup_s, "s"},
      {"stmts_per_s", e.stmts_per_s, "1/s"},
      {"p50_ms", e.p50_ms, "ms"},
      {"tail_ms", e.tail_ms, "ms"},
      {"snapshot_ms", e.snapshot_ms, "ms"},
      {"bytes_per_stmt", e.bytes_per_stmt, "B"},
  };
}

void Check(bool ok, const std::string& message) {
  if (!ok) throw CheckFailure(message);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double TailQuantileFor(size_t samples) {
  if (samples < 20) return 0.5;
  return std::min(0.9, 1.0 - 10.0 / static_cast<double>(samples));
}

void PinForRep(size_t rep, unsigned count) {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned i = 0; i < std::min(count, cpus); ++i) {
    CPU_SET(static_cast<int>((rep + i) % cpus), &set);
  }
  // Best effort: a host that refuses affinity still runs, only less steadily.
  (void)sched_setaffinity(0, sizeof(set), &set);
}

std::vector<size_t> FasterHalf(const std::vector<double>& costs) {
  std::vector<size_t> order(costs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return costs[a] < costs[b]; });
  order.resize(std::min(order.size(), std::max<size_t>(1, (costs.size() + 1) / 2)));
  std::sort(order.begin(), order.end());
  return order;
}

std::vector<double> Pool(const std::vector<std::vector<double>>& groups,
                         const std::vector<size_t>& keep) {
  std::vector<double> out;
  for (size_t i : keep) out.insert(out.end(), groups[i].begin(), groups[i].end());
  return out;
}

std::vector<double> Pick(const std::vector<double>& values, const std::vector<size_t>& keep) {
  std::vector<double> out;
  for (size_t i : keep) out.push_back(values[i]);
  return out;
}

uint64_t Fnv(std::string_view bytes, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t DetectionDigest(const sqlcheck::Report& report) {
  uint64_t h = Fnv("detections");
  char score[32];
  for (const sqlcheck::Finding& f : report.findings) {
    const sqlcheck::Detection& d = f.ranked.detection;
    h = Fnv(sqlcheck::ApName(d.type), h);
    h = Fnv(std::to_string(static_cast<int>(d.source)), h);
    std::snprintf(score, sizeof(score), "%.17g", f.ranked.score);
    h = Fnv(score, h);
    for (const std::string* s : {&d.table, &d.column, &d.query, &d.message}) {
      h = Fnv(*s, h);
      h = Fnv(std::string_view("\x1f", 1), h);
    }
  }
  return h;
}

void Spans::Add(std::string_view name, double us, double items) {
  auto it = acc_.find(name);
  if (it == acc_.end()) it = acc_.emplace(std::string(name), Acc{}).first;
  it->second.total_us += us;
  it->second.items += items;
}

double Spans::MeanUs(std::string_view name) const {
  auto it = acc_.find(name);
  if (it == acc_.end() || it->second.items <= 0.0) return 0.0;
  return it->second.total_us / it->second.items;
}

double Spans::TotalUs(std::string_view name) const {
  auto it = acc_.find(name);
  return it == acc_.end() ? 0.0 : it->second.total_us;
}

void ResetDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path, ec);
  Check(!ec, "cannot create " + path + ": " + ec.message());
}

}  // namespace perfbench
