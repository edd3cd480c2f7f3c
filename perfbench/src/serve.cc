// serve_stream: the editor/monitor use. An in-process sqlcheck-server on
// loopback (2 workers, no session quota) serves tenants that stream a seeded,
// duplicate-heavy query log as single-statement `check` requests, with a
// `snapshot` every kSnapshotEvery checks. Each tenant replays its log in
// epochs that begin with `reset`, so every snapshot has a fixed expected
// answer: the same statements through an offline AnalysisSession.
//
// Phase 1 is an open loop at kOfferedRate requests/s in total, each request
// timed from the moment it was due; phase 2 is a closed loop, one request in
// flight per tenant, for throughput. Refusals and errors count as failures
// and never as throughput or latency samples.
#include <sys/prctl.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <thread>
#include <unordered_set>

#include "core/emit.h"
#include "core/session.h"
#include "server/client.h"
#include "server/server.h"
#include "trace.h"
#include "wire_client.h"
#include "workload/corpus.h"
#include "workloads.h"

namespace perfbench {

using namespace sqlcheck;

namespace {

constexpr size_t kTenants = 2;
constexpr int kWorkers = 2;
/// Open-loop offered load, requests/s over all tenants. Frozen: changing it
/// changes what p50_ms/tail_ms measure. It sits far below the closed loop's
/// ~30k checks/s on a 4-thread host: near half of that, the checks queued
/// behind each snapshot set the p90, and it flipped between runs.
constexpr double kOfferedRate = 2000.0;
/// Query logs per tenant connection, replayed one epoch each in turn.
constexpr size_t kStreamsPerTenant = 8;
constexpr size_t kEpochChecks = 400;
constexpr size_t kSnapshotEvery = 50;
/// Distinct statements a tenant's log draws from; one check in twenty is a
/// fresh literal instead, so about 90% of checks repeat a statement.
constexpr size_t kPoolSize = 24;
/// Closed-loop throughput is the median of per-window rates, so a stall of
/// the shared host moves a few windows, not the figure.
constexpr double kWindowS = 0.25;
/// Checks in flight per connection in the closed loop: enough that the
/// workers never wait on a client's wake-up, so the loop measures the
/// server rather than thread hand-offs.
constexpr size_t kPipelineDepth = 8;

struct TenantStream {
  std::vector<std::string> statements;  ///< One epoch, in order.
  std::vector<std::string> requests;    ///< Checks with snapshots interleaved.
  /// Expected finding lines of each snapshot, in epoch order.
  std::vector<std::vector<std::string>> snapshots;
};

TenantStream MakeStream(uint64_t seed, size_t log, size_t checks) {
  workload::CorpusOptions corpus_options;
  corpus_options.repo_count = 8;
  corpus_options.seed = seed * 1000 + 500 + log;
  workload::Corpus corpus = workload::GenerateCorpus(corpus_options);
  std::vector<std::string> pool;
  std::unordered_set<std::string> seen;
  for (const workload::LabeledStatement& s : corpus.AllStatements()) {
    if (seen.insert(s.sql).second) pool.push_back(s.sql);
  }
  std::mt19937_64 rng(seed * 7919 + log);
  std::shuffle(pool.begin(), pool.end(), rng);
  pool.resize(std::min(pool.size(), kPoolSize));
  TenantStream stream;
  for (size_t i = 0; i < checks; ++i) {
    if (rng() % 20 == 0) {
      stream.statements.push_back("SELECT * FROM audit_log WHERE entry_id = " +
                                  std::to_string(rng() % 1000000));
    } else {
      stream.statements.push_back(pool[rng() % pool.size()]);
    }
    stream.requests.push_back(CheckRequest(stream.statements.back()));
    if ((i + 1) % kSnapshotEvery == 0) stream.requests.push_back(R"({"op": "snapshot"})");
  }
  return stream;
}

/// Prices every snapshot of one epoch offline.
void ExpectSnapshots(TenantStream* stream) {
  AnalysisSession offline{SqlCheckOptions{}};
  for (size_t i = 0; i < stream->statements.size(); ++i) {
    offline.Check(stream->statements[i]);
    if ((i + 1) % kSnapshotEvery != 0) continue;
    Report report = offline.Snapshot();
    std::vector<std::string> lines;
    for (size_t f = 0; f < report.findings.size(); ++f) {
      lines.push_back(R"({"op": "finding", "finding": )" +
                      FindingToJsonLine(report.findings[f], f + 1) + "}");
    }
    stream->snapshots.push_back(std::move(lines));
  }
}

/// One tenant's samples; the vectors of vectors are bucketed by kWindowS
/// window of the phase.
struct TenantStats {
  std::vector<std::vector<double>> check_us;  ///< Open loop: successful checks, from due.
  std::vector<double> checks_done;            ///< Closed loop: successful checks.
  std::vector<std::vector<double>> snapshot_us;  ///< Closed loop: full-epoch snapshots.
  std::vector<double> lateness_us;  ///< Open loop: send time - due time.
  uint64_t requests = 0;
  uint64_t failed = 0;
  uint64_t checks_ok = 0;    ///< Closed loop.
  uint64_t check_bytes = 0;  ///< Closed loop: response bytes of those checks.
};

/// `windows[w]`, growing `windows` as needed.
template <typename T>
T& WindowAt(std::vector<T>* windows, Clock::time_point start) {
  const size_t w = static_cast<size_t>(SecondsSince(start) / kWindowS);
  if (windows->size() <= w) windows->resize(w + 1);
  return (*windows)[w];
}

bool Ok(const std::string& terminal) {
  return terminal.find("\"ok\": true") != std::string::npos;
}

bool IsSnapshot(const std::string& request) {
  return request.starts_with(R"({"op": "snapshot")");
}

/// A connection with its read/write bookkeeping: every request sent is
/// counted, and every response read is checked against its request.
class Tenant {
 public:
  Tenant(server::LineClient* client, TenantStats* st) : client_(client), st_(st) {}

  void Send(const std::string& line) {
    ++st_->requests;
    Check(client_->SendLine(line).ok(), "serve_stream: connection lost");
  }

  /// Reads the response to `request`; checks snapshots against `expected`.
  /// Returns false for a refused or failed check.
  bool Receive(const std::string& request, const std::vector<std::string>* expected) {
    findings_.clear();
    Check(ReadResponse(client_, &terminal_, &findings_), "serve_stream: connection lost");
    if (expected != nullptr) {
      Check(Ok(terminal_) && findings_ == *expected,
            "serve_stream: a snapshot differs from the offline session");
      return true;
    }
    if (!IsSnapshot(request) && !Ok(terminal_)) {
      ++st_->failed;  // quota, overloaded, deadline_exceeded, internal_error
      return false;
    }
    return true;
  }

  size_t response_bytes() const {
    size_t bytes = terminal_.size() + 1;
    for (const std::string& f : findings_) bytes += f.size() + 1;
    return bytes;
  }

 private:
  server::LineClient* client_;
  TenantStats* st_;
  std::string terminal_;
  std::vector<std::string> findings_;
};

/// Open loop over one epoch: request k is due at `*due` + k * interval, its
/// latency runs from that due time, and a late send is recorded as the
/// generator's lateness.
void OpenLoopEpoch(Tenant* tenant, const TenantStream& stream, Clock::time_point start,
                   Clock::duration interval, Clock::time_point* due, TenantStats* st) {
  auto request = [&](const std::string& line, const std::vector<std::string>* expected) {
    if (Clock::now() < *due) std::this_thread::sleep_until(*due);
    st->lateness_us.push_back(UsSince(*due));
    tenant->Send(line);
    bool ok = tenant->Receive(line, expected);
    if (ok && !IsSnapshot(line)) WindowAt(&st->check_us, start).push_back(UsSince(*due));
    *due += interval;
  };
  request(R"({"op": "reset"})", nullptr);
  size_t snapshot = 0;
  for (const std::string& line : stream.requests) {
    request(line, IsSnapshot(line) ? &stream.snapshots[snapshot++] : nullptr);
  }
}

/// Closed loop over one epoch: the checks are pipelined kPipelineDepth deep
/// (intermediate snapshots are skipped), then the epoch's final snapshot is
/// sent alone and timed.
void ClosedLoopEpoch(Tenant* tenant, const TenantStream& stream, Clock::time_point start,
                     TenantStats* st) {
  std::vector<const std::string*> lines;
  for (const std::string& line : stream.requests) {
    if (!IsSnapshot(line)) lines.push_back(&line);
  }
  tenant->Send(R"({"op": "reset"})");
  tenant->Receive(R"({"op": "reset"})", nullptr);
  size_t sent = 0;
  for (size_t received = 0; received < lines.size(); ++received) {
    while (sent < lines.size() && sent - received < kPipelineDepth) tenant->Send(*lines[sent++]);
    if (!tenant->Receive(*lines[received], nullptr)) continue;
    ++st->checks_ok;
    st->check_bytes += tenant->response_bytes();
    WindowAt(&st->checks_done, start) += 1;
  }
  auto snapshot_start = Clock::now();
  tenant->Send(stream.requests.back());
  tenant->Receive(stream.requests.back(), &stream.snapshots.back());
  WindowAt(&st->snapshot_us, start).push_back(UsSince(snapshot_start));
}

/// Streams whole epochs, one log after another, until `end`: open loop at
/// `interval_s` between requests, or closed loop when it is 0.
void DriveTenant(server::LineClient* client, std::span<const TenantStream> logs,
                 Clock::time_point start, Clock::time_point end, double interval_s,
                 TenantStats* st) {
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);  // 1 us: sleeps wake on time
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(interval_s));
  Tenant tenant(client, st);
  Clock::time_point due = Clock::now();
  for (size_t epoch = 0; Clock::now() < end; ++epoch) {
    const TenantStream& stream = logs[epoch % logs.size()];
    if (interval_s > 0.0) {
      OpenLoopEpoch(&tenant, stream, start, interval, &due, st);
    } else {
      ClosedLoopEpoch(&tenant, stream, start, st);
    }
  }
}

struct Deployment {
  std::unique_ptr<server::SqlCheckServer> server;
  std::vector<server::LineClient> clients;
};

Deployment Deploy() {
  server::ServerOptions options;
  options.port = 0;
  options.workers = kWorkers;
  Deployment d;
  d.server = std::make_unique<server::SqlCheckServer>(options);
  Check(d.server->Start().ok(), "serve_stream: server failed to start");
  d.clients.resize(kTenants);
  for (server::LineClient& client : d.clients) {
    std::string hello;
    Check(client.Connect("127.0.0.1", d.server->port()).ok() && client.ReadLine(&hello).ok(),
          "serve_stream: connect failed");
  }
  return d;
}

/// Runs every tenant on its own thread until `seconds` pass (each finishes
/// the epoch it is in).
void RunPhase(Deployment* d, const std::vector<TenantStream>& streams, double seconds,
              double offered_rate, std::vector<TenantStats>* stats) {
  stats->assign(kTenants, {});
  const double interval_s = offered_rate > 0.0 ? kTenants / offered_rate : 0.0;
  auto start = Clock::now();
  auto end = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(kTenants);
  for (size_t t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      try {
        const TenantStream* mine = &streams[t * kStreamsPerTenant];
        DriveTenant(&d->clients[t], {mine, kStreamsPerTenant}, start, end, interval_s,
                    &(*stats)[t]);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace

RunResult RunServeStream(const Config& config) {
  const size_t checks = config.tiny ? kSnapshotEvery : kEpochChecks;
  // Set-up generates the logs, prices their snapshots offline (the
  // reference), and deploys the server with its tenant connections.
  std::vector<TenantStream> streams;
  Deployment deployment;
  const double setup_s = TimeSetup(kSetupReps, [&] {
    deployment = Deployment{};
    streams.clear();
    for (size_t s = 0; s < kTenants * kStreamsPerTenant; ++s) {
      streams.push_back(MakeStream(config.seed, s, checks));
      if (!config.trace) ExpectSnapshots(&streams.back());
    }
    deployment = Deploy();
  });

  RunResult result;
  result.threads = kTenants + kWorkers;
  if (config.trace) {
    deployment = Deployment{};
    std::vector<Unit> units;
    for (size_t s = 0; s < streams.size(); ++s) {
      std::string script;
      for (const std::string& sql : streams[s].statements) script += sql + ";\n";
      units.push_back({"log" + std::to_string(s), {script}, {}, streams[s].requests, nullptr});
    }
    result.metrics = LayerMetrics(TraceUnits(units, SqlCheckOptions{}, config));
    result.attempted = units.size();
    return result;
  }

  if (config.inject_mismatch) streams[0].snapshots[0].push_back("{}");

  std::vector<TenantStats> open, closed, warmup;
  RunPhase(&deployment, streams, 0.02, 0.0, &warmup);
  RunPhase(&deployment, streams, config.seconds * 0.5, kOfferedRate, &open);
  RunPhase(&deployment, streams, config.seconds * 0.5, 0.0, &closed);
  for (server::LineClient& client : deployment.clients) client.Close();
  deployment.server->Stop();

  // Merge the tenants' windows.
  std::vector<std::vector<double>> check_windows, snapshot_windows;
  std::vector<double> done, lateness_us;
  uint64_t closed_checks = 0, closed_bytes = 0;
  for (const auto* phase : {&open, &closed}) {
    for (const TenantStats& s : *phase) {
      result.attempted += s.requests;
      result.failed += s.failed;
      check_windows.resize(std::max(check_windows.size(), s.check_us.size()));
      for (size_t w = 0; w < s.check_us.size(); ++w) {
        check_windows[w].insert(check_windows[w].end(), s.check_us[w].begin(), s.check_us[w].end());
      }
      snapshot_windows.resize(std::max(snapshot_windows.size(), s.snapshot_us.size()));
      for (size_t w = 0; w < s.snapshot_us.size(); ++w) {
        snapshot_windows[w].insert(snapshot_windows[w].end(), s.snapshot_us[w].begin(),
                                   s.snapshot_us[w].end());
      }
      done.resize(std::max(done.size(), s.checks_done.size()));
      for (size_t w = 0; w < s.checks_done.size(); ++w) done[w] += s.checks_done[w];
      lateness_us.insert(lateness_us.end(), s.lateness_us.begin(), s.lateness_us.end());
      closed_checks += s.checks_ok;
      closed_bytes += s.check_bytes;
    }
  }
  // Whole windows only: a phase's last window is cut short by its end.
  if (check_windows.size() > 1) check_windows.pop_back();
  if (done.size() > 1) done.pop_back();
  snapshot_windows.resize(done.size());

  // The faster half of the windows: lowest median latency in the open loop,
  // most checks done in the closed loop.
  std::vector<double> open_cost, closed_cost, rates;
  for (const std::vector<double>& w : check_windows) {
    open_cost.push_back(w.empty() ? std::numeric_limits<double>::infinity() : Median(w));
  }
  for (double n : done) {
    rates.push_back(n / kWindowS);
    closed_cost.push_back(-n);
  }
  const std::vector<size_t> open_fast = FasterHalf(open_cost);
  const std::vector<size_t> closed_fast = FasterHalf(closed_cost);
  const std::vector<double> latencies = Pool(check_windows, open_fast);
  const std::vector<double> snapshots = Pool(snapshot_windows, closed_fast);
  Check(!latencies.empty() && !snapshots.empty() && closed_checks > 0,
        "serve_stream: no successful checks");
  result.notes["offered_rate_per_s"] = kOfferedRate;
  result.notes["lateness_p50_us"] = Median(lateness_us);
  result.notes["lateness_p99_us"] = Quantile(lateness_us, 0.99);
  result.notes["p99_ms"] = Quantile(latencies, 0.99) / 1e3;

  EndToEnd e;
  e.setup_s = setup_s;
  e.stmts_per_s = Median(Pick(rates, closed_fast));
  e.p50_ms = Median(latencies) / 1e3;
  e.tail_ms = Quantile(latencies, TailQuantileFor(latencies.size())) / 1e3;
  e.snapshot_ms = Median(snapshots) / 1e3;
  e.bytes_per_stmt = static_cast<double>(closed_bytes) / static_cast<double>(closed_checks);
  result.metrics = EndToEndMetrics(e);
  return result;
}

}  // namespace perfbench
