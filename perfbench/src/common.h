// Shared plumbing of the perfbench harness: run configuration, the result
// record, statistics, digests, and the span recorder the traced runs use.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double UsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

/// One invocation: `perfbench --workload W --seed N --seconds S --trace 0|1`.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scales every input down to a few statements (the smoke self-test).
  bool tiny = false;
  /// Corrupts the reference digest so the correctness check must fail.
  bool inject_mismatch = false;
  /// Scratch directory for trees and store files (inside the checkout).
  std::string work_dir = ".bench_work";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports. A failed correctness check never produces
/// one: it throws CheckFailure and the run exits non-zero.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int threads = 1;  ///< Threads the process used (client + server + pool).
  std::vector<Metric> metrics;
  /// Context printed with the stamp, not compared (e.g. generator lateness).
  std::map<std::string, double> notes;
};

/// The end-to-end metrics every workload reports (perfbench/README.md
/// defines what each means on each workload).
struct EndToEnd {
  double setup_s = 0.0;
  double stmts_per_s = 0.0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double snapshot_ms = 0.0;
  double bytes_per_stmt = 0.0;
};
std::vector<Metric> EndToEndMetrics(const EndToEnd& e);

struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};
/// Throws CheckFailure(message) unless `ok`.
void Check(bool ok, const std::string& message);

/// Quantile with linear interpolation (q in [0, 1]); 0 for an empty set.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }
/// The highest percentile, capped at p90, that leaves at least ten samples
/// above it; the median when there are fewer than twenty samples. Past p90
/// the figure is set by which requests queued behind a snapshot or a stall
/// of the shared host, and flips between runs.
double TailQuantileFor(size_t samples);

/// Indices of the cheaper half of `costs` (at least one), in input order.
/// The shared host slows down for seconds at a time: a fixed CPU loop timed
/// in 2 s windows ran 15-60% slower in about a quarter of them. So every
/// figure is taken over the faster half of a run's reps or time windows.
std::vector<size_t> FasterHalf(const std::vector<double>& costs);

/// Pins the calling thread, and the threads it starts from now on, to
/// `count` consecutive CPUs starting at CPU `rep` mod the CPU count. The
/// host's CPUs are not equally fast at any moment (a neighbour loads one for
/// tens of seconds), and a thread the scheduler leaves on one CPU for a
/// whole run makes the whole run fast or slow. Rotating the reps over every
/// CPU gives each run the same mix, and FasterHalf keeps the quieter ones.
/// Interleaved A/B on batch_repos, ten seeds: quartile spread of p50_ms
/// 0.085 -> 0.047, stmts_per_s 0.092 -> 0.060, tail_ms 0.167 -> 0.096.
void PinForRep(size_t rep, unsigned count);

/// Concatenates `groups[i]` for every index in `keep`.
std::vector<double> Pool(const std::vector<std::vector<double>>& groups,
                         const std::vector<size_t>& keep);

/// `values[i]` for every index in `keep`.
std::vector<double> Pick(const std::vector<double>& values, const std::vector<size_t>& keep);

/// 64-bit FNV-1a, chainable through `seed`.
uint64_t Fnv(std::string_view bytes, uint64_t seed = 1469598103934665603ull);

/// Digest of a report's detections alone (rule, source, score, table,
/// column, query, message, in rank order): fixes are left out, so the same
/// workload digests equal with and without fix verification.
uint64_t DetectionDigest(const sqlcheck::Report& report);

/// Set-ups timed per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// Runs `setup` `reps` times and returns the median wall seconds.
template <typename F>
double TimeSetup(int reps, F&& setup) {
  std::vector<double> secs;
  for (int i = 0; i < reps; ++i) {
    auto start = Clock::now();
    setup();
    secs.push_back(SecondsSince(start));
  }
  return Median(secs);
}

/// Calls `rep` until `seconds` have passed, and at least `min_reps` times.
template <typename F>
int RunFor(double seconds, int min_reps, F&& rep) {
  auto start = Clock::now();
  int reps = 0;
  while (reps < min_reps || SecondsSince(start) < seconds) {
    rep();
    ++reps;
  }
  return reps;
}

/// Accumulates span durations by layer name: total microseconds and the
/// number of items the spans covered (statements, requests, calls).
class Spans {
 public:
  struct Acc {
    double total_us = 0.0;
    double items = 0.0;
  };
  void Add(std::string_view name, double us, double items = 1.0);
  /// Mean microseconds per item; 0 when the layer saw nothing.
  double MeanUs(std::string_view name) const;
  double TotalUs(std::string_view name) const;

 private:
  std::map<std::string, Acc, std::less<>> acc_;
};

/// RAII span: records the scope's wall time under `name` on destruction.
class Span {
 public:
  Span(Spans* spans, std::string_view name, double items = 1.0)
      : spans_(spans), name_(name), items_(items), start_(Clock::now()) {}
  ~Span() { spans_->Add(name_, UsSince(start_), items_); }
  void set_items(double items) { items_ = items; }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans* spans_;
  std::string_view name_;
  double items_;
  Clock::time_point start_;
};

/// Creates (or empties) `path` as a directory; throws on failure.
void ResetDir(const std::string& path);

}  // namespace perfbench
