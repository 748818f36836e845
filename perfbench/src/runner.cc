// The run: set-up, an open-loop phase timed from each request's due time, a
// closed-loop peak phase on the same client threads, drain and final checks,
// all while one thread calls FirestoreService::Pump on a fixed period.
//
// --trace 0 reports the end-to-end metrics. --trace 1 is a separate run: it
// traces every other request of its open loop, times the calls that make up
// Pump one by one, reads metric-registry deltas over the open loop, and
// reports the per-layer metrics.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <thread>

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"
#include "common/metrics.h"

namespace perfbench {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

using firestore::Micros;
using firestore::service::FirestoreService;

constexpr double kOpenShare = 0.7;   // of --seconds; the rest is the peak phase
constexpr int64_t kClosedPoolOps = 20'000;  // per client, cycled
// The open loop fell behind its schedule when requests were still being
// issued this share of its window after the window's end: a backlog grew.
// Those requests count as failed. A passing stall that the clients catch up
// on is measured as latency instead.
constexpr double kMaxOverrun = 0.1;

// Sleeps, then spins the last stretch, until `due_ns`. Returns false if
// `stop` was raised first.
bool WaitUntil(int64_t due_ns, const std::atomic<bool>* stop = nullptr) {
  for (;;) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) return false;
    const int64_t left = due_ns - NowNanos();
    if (left <= 0) return true;
    if (left > 200'000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min<int64_t>(left - 100'000,
                                                     2'000'000)));
    } else {
      std::this_thread::yield();
    }
  }
}

// Nearest-rank percentile of `values`, q in (0, 1]. 0 when empty.
double Percentile(std::vector<int64_t>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return static_cast<double>(values[std::max<size_t>(rank, 1) - 1]);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Samples of one client thread.
struct ClientLog {
  // Open loop, by Outcome::Class, untraced requests: latency from due time.
  std::vector<int64_t> latency[2];
  std::vector<int64_t> traced_latency[2];  // the same for traced requests
  std::vector<int64_t> late_ns;  // open loop: issue time - due time
  int64_t attempted = 0;
  int64_t failed = 0;     // failed, refused, wrong, or issued too late
  int64_t incorrect = 0;  // of which: failed, refused, or wrong
  int64_t errors = 0;     // of which: calls that returned an error
  int64_t late = 0;       // open loop: issued after the overrun limit
  int64_t results = 0;    // documents returned by queries
  int64_t closed_done = 0;  // closed loop: ops completed in the phase
  TraceLog traces;

  void Count(const Outcome& outcome, bool too_late = false) {
    const bool bad = !outcome.ok || outcome.wrong > 0;
    ++attempted;
    if (!outcome.ok) ++errors;
    if (bad) ++incorrect;
    if (too_late) ++late;
    if (bad || too_late) ++failed;
    results += outcome.results;
  }
};

// One Pump. With the pump decomposed, parts_ns holds the calls Pump makes,
// in its order: Changelog::Tick, Frontend::Pump, FunctionRegistry::
// DispatchPending, Database::RunLoadSplitting, Database::GarbageCollect.
struct PumpRecord {
  int64_t start_ns = 0;
  int64_t late_ns = 0;
  int64_t busy_ns = 0;
  int64_t parts_ns[5] = {};
};
constexpr int kPumpParts = 5;

void PumpLoop(FirestoreService& service, const BenchClock& clock,
              int64_t period_ns, bool decomposed,
              const std::atomic<bool>& stop, std::vector<PumpRecord>& log) {
  // Mirrors FirestoreService::Pump (service.cc) call for call; the
  // workloads keep the default retention.
  const Micros retention = FirestoreService::Options().version_retention;
  const int64_t start = NowNanos();
  for (int64_t k = 0;; ++k) {
    const int64_t due = start + k * period_ns;
    if (!WaitUntil(due, &stop)) return;
    PumpRecord record;
    record.start_ns = NowNanos();
    record.late_ns = record.start_ns - due;
    if (decomposed) {
      int64_t t[kPumpParts + 1];
      t[0] = record.start_ns;
      service.changelog().Tick();
      t[1] = NowNanos();
      service.frontend().Pump();
      t[2] = NowNanos();
      service.functions().DispatchPending(service.spanner());
      t[3] = NowNanos();
      service.spanner().RunLoadSplitting(/*load_threshold=*/10'000);
      t[4] = NowNanos();
      const Micros horizon = clock.NowMicros() - retention;
      if (horizon > 0) service.spanner().GarbageCollect(horizon);
      t[5] = NowNanos();
      for (int p = 0; p < kPumpParts; ++p) record.parts_ns[p] = t[p + 1] - t[p];
    } else {
      service.Pump();
    }
    record.busy_ns = NowNanos() - record.start_ns;
    log.push_back(record);
  }
}

Outcome ExecuteTraced(Workload& workload, const BenchClock& clock, int client,
                      const Op& op, TraceLog& traces) {
  auto trace = std::make_unique<firestore::Trace>(&clock, "bench.op");
  Outcome outcome;
  {
    firestore::TraceScope scope(*trace);
    outcome = workload.Execute(client, op);
  }
  trace->Finish();  // async spans of the write still land in it
  traces.push_back(std::move(trace));
  return outcome;
}

// With `trace`, every other request runs traced. Requests issued after
// `late_ns` count as failed.
void OpenLoopClient(Workload& workload, const BenchClock& clock,
                    const Schedule& schedule, int client, int64_t start_ns,
                    int64_t late_ns, bool trace, ClientLog& log) {
  const std::vector<Op>& ops = schedule.open[client];
  log.late_ns.reserve(ops.size());
  for (size_t k = 0; k < ops.size(); ++k) {
    const int64_t due = start_ns + schedule.DueOffsetNs(client, k);
    WaitUntil(due);
    const int64_t issued = NowNanos();
    const bool traced = trace && k % 2 == 0;
    const Outcome outcome =
        traced ? ExecuteTraced(workload, clock, client, ops[k], log.traces)
               : workload.Execute(client, ops[k]);
    const int64_t done = NowNanos();
    log.Count(outcome, issued > late_ns);
    log.late_ns.push_back(issued - due);
    std::vector<int64_t>* latency = traced ? log.traced_latency : log.latency;
    latency[static_cast<int>(outcome.cls)].push_back(done - due);
  }
}

void ClosedLoopClient(Workload& workload, const Schedule& schedule,
                      int client, int64_t end_ns, ClientLog& log) {
  const std::vector<Op>& ops = schedule.closed[client];
  log.closed_done = 0;
  for (size_t i = 0; NowNanos() < end_ns; ++i) {
    log.Count(workload.Execute(client, ops[i % ops.size()]));
    if (NowNanos() < end_ns) ++log.closed_done;
  }
}

// Runs `ops` ops back to back on every client, untimed.
void WarmUp(Workload& workload, const Schedule& schedule, int64_t ops,
            std::vector<ClientLog>& logs) {
  std::vector<std::thread> clients;
  for (int c = 0; c < schedule.clients; ++c) {
    clients.emplace_back([&workload, &schedule, &logs, ops, c] {
      const std::vector<Op>& pool = schedule.closed[c];
      for (int64_t i = 0; i < ops; ++i) {
        logs[c].Count(workload.Execute(c, pool[i % pool.size()]));
      }
    });
  }
  for (std::thread& t : clients) t.join();
}

// Runs every client back to back for `seconds`; returns completed ops/s
// over the whole phase. Not a median of windows: on kv_mixed the rate moved
// between regimes within a phase (~17k and ~33k ops/s) at times that varied
// between runs, so that a window median picked either one, while the
// phase's total held within a few percent.
double ClosedLoop(Workload& workload, const Schedule& schedule,
                  double seconds, std::vector<ClientLog>& logs) {
  const int64_t start = NowNanos();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> clients;
  for (int c = 0; c < schedule.clients; ++c) {
    clients.emplace_back(ClosedLoopClient, std::ref(workload),
                         std::cref(schedule), c, end, std::ref(logs[c]));
  }
  for (std::thread& t : clients) t.join();
  int64_t done = 0;
  for (const ClientLog& log : logs) done += log.closed_done;
  return static_cast<double>(done) / seconds;
}

int64_t CounterValue(const char* name) {
  return firestore::MetricRegistry::Global().GetCounter(name).value();
}

// Registry counters read as deltas over the open loop.
constexpr const char* kCounters[] = {
    "service.commits",          "service.gets",
    "service.queries",          "spanner.rows.written",
    "spanner.rows.read",        "spanner.rows.scanned",
    "spanner.lock.waits",       "spanner.txn.aborts",
    "rtcache.released",         "rtcache.matcher.examined",
    "rtcache.matcher.matched",  "frontend.snapshots",
    "frontend.resets",          "rtcache.out_of_sync",
};

std::map<std::string, int64_t> ReadCounters() {
  std::map<std::string, int64_t> values;
  for (const char* name : kCounters) values[name] = CounterValue(name);
  return values;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "kv_mixed") return MakeKvMixed(seed);
  if (name == "index_query") return MakeIndexQuery(seed);
  if (name == "realtime_fanout") return MakeRealtimeFanout(seed);
  return nullptr;
}

// Builds the workload's service; returns the seconds it took.
double TimedSetup(Workload& workload, const BenchClock& clock,
                  TraceLog* listen_traces) {
  const int64_t t0 = NowNanos();
  workload.Setup(&clock, listen_traces);
  // The first pump after a bulk load splits the loaded tablets; it is part
  // of loading, not of the steady state the loops measure.
  workload.service().Pump();
  return static_cast<double>(NowNanos() - t0) / 1e9;
}

// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

// TimedSetup in a forked child, which runs on `cpu` only (if it may), then
// reports the time through a pipe and exits; -1 if that failed. Call before
// any thread starts.
double SetupInChild(Workload& workload, const BenchClock& clock, int cpu) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
    const double seconds = TimedSetup(workload, clock, nullptr);
    const bool sent = write(fds[1], &seconds, sizeof(seconds)) ==
                      static_cast<ssize_t>(sizeof(seconds));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1;
  if (pid < 0 || read(fds[0], &seconds, sizeof(seconds)) !=
                     static_cast<ssize_t>(sizeof(seconds))) {
    seconds = -1;
  }
  close(fds[0]);
  int status = 0;
  if (pid > 0 && (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
                  WEXITSTATUS(status) != 0)) {
    seconds = -1;
  }
  if (seconds < 0) std::fprintf(stderr, "set-up in a child process failed\n");
  return seconds;
}

}  // namespace

int Run(const RunOptions& options) {
  std::unique_ptr<Workload> workload =
      MakeWorkload(options.workload, options.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  const WorkloadShape shape = workload->shape();
  const BenchClock clock;

  // Inputs, drawn from the seed before anything is timed.
  const double open_s =
      options.trace ? options.seconds : options.seconds * kOpenShare;
  const double closed_s = options.trace ? 0 : options.seconds - open_s;
  firestore::Rng rng(options.seed);
  Schedule schedule;
  schedule.clients = shape.clients;
  schedule.interval_ns = static_cast<int64_t>(1e9 / shape.rate);
  schedule.open.resize(shape.clients);
  schedule.closed.resize(shape.clients);
  const int64_t open_ops = std::llround(open_s * shape.rate);
  for (int c = 0; c < shape.clients; ++c) {
    for (int64_t k = c; k < open_ops; k += shape.clients) {
      schedule.open[c].push_back(workload->NextOp(c, rng));
    }
    if (closed_s > 0 || shape.warmup_ops > 0) {
      for (int64_t k = 0; k < kClosedPoolOps; ++k) {
        schedule.closed[c].push_back(workload->NextOp(c, rng));
      }
    }
  }
  workload->Plan(schedule);

  // Set-up. setup_s is the fastest of several, the one least disturbed by
  // the host: on a shared host one CPU at a time can run 50% slow for
  // seconds, so the set-ups rotate over the CPUs. All but the last run in a
  // forked child, so that each, and the service the loops then measure,
  // builds on a fresh heap rather than on the free lists a torn-down
  // service left behind.
  double setup_s = std::numeric_limits<double>::infinity();
  TraceLog listen_traces;
  const std::vector<int> cpus = AllowedCpus();
  for (int i = 1; i < (options.trace ? 1 : shape.setups); ++i) {
    const double child_s = SetupInChild(
        *workload, clock, cpus.empty() ? 0 : cpus[(i - 1) % cpus.size()]);
    if (child_s < 0) return 2;
    setup_s = std::min(setup_s, child_s);
  }
  setup_s = std::min(setup_s, TimedSetup(*workload, clock,
                                         options.trace ? &listen_traces
                                                       : nullptr));
  FirestoreService& service = workload->service();

  std::atomic<bool> stop_pump{false};
  std::vector<PumpRecord> pumps;
  std::thread pump_thread(PumpLoop, std::ref(service), std::cref(clock),
                          shape.pump_period_us * 1000, options.trace,
                          std::cref(stop_pump), std::ref(pumps));

  // Warm-up: untimed closed-loop load, so that the tablets split by load
  // after the bulk load and the caches settle before anything is timed. A
  // fixed op count rather than a fixed time: the versions and tablet splits
  // it leaves, which the open loop's Pump stalls walk, do not then depend on
  // how fast the host ran it.
  std::vector<ClientLog> logs(shape.clients);
  if (shape.warmup_ops > 0) {
    WarmUp(*workload, schedule, shape.warmup_ops, logs);
    std::this_thread::sleep_for(
        std::chrono::microseconds(2 * shape.pump_period_us));
  }

  // Open loop.
  const int64_t open_ns = static_cast<int64_t>(open_s * 1e9);
  const std::map<std::string, int64_t> counters_before = ReadCounters();
  const int64_t open_start = NowNanos() + 20'000'000;
  const int64_t late_ns = open_start + open_ns +
                          static_cast<int64_t>(kMaxOverrun * open_ns);
  workload->BeginOpenLoop(open_start);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < shape.clients; ++c) {
      clients.emplace_back(OpenLoopClient, std::ref(*workload),
                           std::cref(clock), std::cref(schedule), c,
                           open_start, late_ns, options.trace,
                           std::ref(logs[c]));
    }
    for (std::thread& t : clients) t.join();
  }
  const int64_t open_end = NowNanos();
  const std::map<std::string, int64_t> counters_after = ReadCounters();
  // Before the peak phase, whose backlog depends on how fast it ran.
  const double peak_rss_mb = PeakRssMb();

  // Closed loop, after in-flight notifications of the open loop land.
  double peak_ops_s = 0;
  if (closed_s > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(2 * shape.pump_period_us));
    peak_ops_s = ClosedLoop(*workload, schedule, closed_s, logs);
  }

  stop_pump = true;
  pump_thread.join();
  const CheckResult final_check = workload->Finish();
  const std::vector<int64_t> notifications =
      workload->TakeNotifications();

  // Samples.
  std::vector<int64_t> latency[2];
  std::vector<int64_t> traced_latency[2];
  std::vector<int64_t> late;
  int64_t attempted = final_check.attempted;
  int64_t failed = final_check.failed;
  int64_t incorrect = final_check.failed;
  int64_t errors = 0;
  int64_t late_ops = 0;
  int64_t results = 0;
  for (const ClientLog& log : logs) {
    for (int c = 0; c < 2; ++c) {
      latency[c].insert(latency[c].end(), log.latency[c].begin(),
                        log.latency[c].end());
      traced_latency[c].insert(traced_latency[c].end(),
                               log.traced_latency[c].begin(),
                               log.traced_latency[c].end());
    }
    late.insert(late.end(), log.late_ns.begin(), log.late_ns.end());
    attempted += log.attempted;
    failed += log.failed;
    incorrect += log.incorrect;
    errors += log.errors;
    late_ops += log.late;
    results += log.results;
  }
  constexpr int kCommit = static_cast<int>(Outcome::Class::kCommit);
  constexpr int kRead = static_cast<int>(Outcome::Class::kRead);
  // The workload's reads: the clients' reads and the notifications.
  std::vector<int64_t> reads = latency[kRead];
  reads.insert(reads.end(), notifications.begin(), notifications.end());
  std::vector<int64_t> pump_late;
  int64_t pump_busy_ns = 0;
  int64_t pump_parts_ns[kPumpParts] = {};
  for (const PumpRecord& record : pumps) {
    if (record.start_ns < open_start || record.start_ns >= open_end) continue;
    pump_late.push_back(record.late_ns);
    pump_busy_ns += record.busy_ns;
    for (int p = 0; p < kPumpParts; ++p) pump_parts_ns[p] += record.parts_ns[p];
  }
  const double pumps_in_window = static_cast<double>(pump_late.size());

  std::vector<Metric> shown;  // printed, not in the JSON
  std::vector<Metric> metrics;
  const double gen_late_p99_us = Percentile(late, 0.99) / 1e3;
  const double pump_late_p99_us = Percentile(pump_late, 0.99) / 1e3;
  const double failed_frac = Ratio(failed, attempted);
  // Percentiles over the whole open loop.
  auto latency_us = [](std::vector<int64_t>& samples, double q) {
    return Percentile(samples, q) / 1e3;
  };
  if (!options.trace) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"read_p50_us", latency_us(reads, 0.50), "us"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    shown = {
        // Left out of the JSON: on realtime_fanout one small Merge, whose
        // median followed the host's speed and spread 0.19-0.31 of it over
        // ten runs.
        {"commit_p50_us", latency_us(latency[kCommit], 0.50), "us"},
        // The tails are left out of the JSON. commit_p99_us swung 2.6-11.9 ms
        // on realtime_fanout between runs of one build. read_p99_us, on
        // kv_mixed and index_query the length of Pump's GC stall, spread
        // 0.27-0.46 of its median across ten runs in three of four trials.
        {"commit_p99_us", latency_us(latency[kCommit], 0.99), "us"},
        {"read_p99_us", latency_us(reads, 0.99), "us"},
        // Left out of the JSON: with every CPU busy it swung 20-30k ops/s on
        // kv_mixed and 4.8-7.6k on index_query between runs of one build,
        // and not with the host's speed: the run with the fastest reads
        // could have the lowest peak.
        {"peak_ops_s", peak_ops_s, "1/s"},
        {"failed_frac", failed_frac, "frac"},
        {"gen.late_p99_us", gen_late_p99_us, "us"},
        {"pump.late_p99_us", pump_late_p99_us, "us"},
    };
  } else {
    std::vector<const TraceLog*> trace_logs = {&listen_traces};
    for (const ClientLog& log : logs) trace_logs.push_back(&log.traces);
    std::map<std::string, SpanSelf> self;
    for (auto& [name, s] : SelfTimes(trace_logs)) self[name] = s;
    auto self_us = [&self](const char* span) {
      auto it = self.find(span);
      return it == self.end() ? 0.0 : it->second.mean_us();
    };
    auto delta = [&](const char* name) {
      return static_cast<double>(counters_after.at(name) -
                                 counters_before.at(name));
    };
    auto part_us = [&](int part) {
      return Ratio(pump_parts_ns[part] / 1e3, pumps_in_window);
    };
    // Tracing overhead: the traced requests' median latencies against the
    // untraced ones', which alternate with them, commit and read summed.
    double untraced_p50 = 0;
    double traced_p50 = 0;
    for (int c = 0; c < 2; ++c) {
      untraced_p50 += latency_us(latency[c], 0.5);
      traced_p50 += latency_us(traced_latency[c], 0.5);
    }
    const double commits = delta("service.commits");
    metrics = {
        {"backend.commit.self_us", self_us("backend.commit"), "us"},
        {"backend.commit.read_set.self_us",
         self_us("backend.commit.read_set"), "us"},
        {"backend.commit.prepare.self_us", self_us("backend.commit.prepare"),
         "us"},
        {"backend.commit.accept.self_us", self_us("backend.commit.accept"),
         "us"},
        {"spanner.commit.self_us", self_us("spanner.commit"), "us"},
        {"backend.read.get.self_us", self_us("backend.read.get"), "us"},
        {"backend.read.query.self_us", self_us("backend.read.query"), "us"},
        {"rtcache.release.self_us", self_us("rtcache.release"), "us"},
        {"rtcache.match.self_us", self_us("rtcache.match"), "us"},
        {"frontend.deliver.self_us", self_us("frontend.deliver"), "us"},
        {"frontend.listen.self_us", self_us("frontend.listen"), "us"},
        {"rtcache.changelog.tick_us", part_us(0), "us"},
        {"frontend.pump_us", part_us(1), "us"},
        {"functions.dispatch_us", part_us(2), "us"},
        {"spanner.split_us", part_us(3), "us"},
        {"spanner.gc_us", part_us(4), "us"},
        {"pump.busy_frac",
         Ratio(pump_busy_ns, static_cast<double>(open_end - open_start)), "frac"},
        {"spanner.rows.written_per_commit",
         Ratio(delta("spanner.rows.written"), commits), "rows/commit"},
        {"spanner.rows.read_per_get",
         Ratio(delta("spanner.rows.read"), delta("service.gets")), "rows/get"},
        {"spanner.rows.scanned_per_result",
         Ratio(delta("spanner.rows.scanned"), static_cast<double>(results)),
         "rows/result"},
        {"spanner.lock.waits_per_commit",
         Ratio(delta("spanner.lock.waits"), commits), "waits/commit"},
        {"spanner.txn.aborts_per_commit",
         Ratio(delta("spanner.txn.aborts"), commits), "aborts/commit"},
        {"rtcache.matcher.examined_per_change",
         Ratio(delta("rtcache.matcher.examined"), delta("rtcache.released")),
         "pairs/change"},
        {"rtcache.matcher.match_ratio",
         Ratio(delta("rtcache.matcher.matched"),
               delta("rtcache.matcher.examined")),
         "frac"},
        {"frontend.snapshots_per_commit",
         Ratio(delta("frontend.snapshots"), commits), "snaps/commit"},
        {"frontend.resets", delta("frontend.resets"), "count"},
        {"rtcache.out_of_sync", delta("rtcache.out_of_sync"), "count"},
        {"gen.late_p99_us", gen_late_p99_us, "us"},
        {"pump.late_p99_us", pump_late_p99_us, "us"},
        {"trace_overhead_frac", Ratio(traced_p50, untraced_p50) - 1, "frac"},
        {"failed_frac", failed_frac, "frac"},
    };
  }

  std::printf("workload %s seed %llu clients %d rate %g ops/s pump_period %lld"
              " us open %g s closed %g s trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), shape.clients,
              shape.rate, static_cast<long long>(shape.pump_period_us),
              open_s, closed_s, options.trace ? 1 : 0);
  for (const Metric& m : metrics) {
    std::printf("%s %s %s\n", m.name.c_str(), JsonNumber(m.value).c_str(),
                m.unit.c_str());
  }
  for (const Metric& m : shown) {
    std::printf("%s %s %s\n", m.name.c_str(), JsonNumber(m.value).c_str(),
                m.unit.c_str());
  }
  // Open-loop validity: a run whose generator fell behind is flagged here
  // and, through the late requests it counts as failed, in the JSON.
  if (late_ops > 0) {
    std::printf("FLAG gen.behind: %lld requests issued over %g s after the"
                " open loop's end\n",
                static_cast<long long>(late_ops), kMaxOverrun * open_s);
    std::fprintf(stderr, "warning: the generator fell behind its schedule\n");
  }
  if (incorrect > 0) {
    std::fprintf(stderr,
                 "correctness: %lld of %lld attempted failed (%lld errors)\n",
                 static_cast<long long>(incorrect),
                 static_cast<long long>(attempted),
                 static_cast<long long>(errors));
  }

  std::string json = "{\"correct\": ";
  json += incorrect == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return incorrect == 0 ? 0 : 1;
}

}  // namespace perfbench
