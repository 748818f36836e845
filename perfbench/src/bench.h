// Wall-clock engine benchmark: shared types.
//
// A run drives one in-process service::FirestoreService through its public
// API on a real clock. The runner (runner.cc) owns the threads and the
// timing; a Workload owns the dataset, the service, the generated request
// mix, and the correctness checks of its results.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/trace.h"
#include "service/service.h"

namespace perfbench {

// Nanoseconds on the steady clock.
int64_t NowNanos();

// The service's clock: steady time plus a fixed epoch offset that exceeds
// the default 1 h version retention. FirestoreService::Pump garbage-collects
// below now - retention only when that horizon is positive, so with a clock
// counting from boot GC would run on a host that has been up for an hour and
// never on a fresh one. With the offset, GC runs on every pump everywhere.
class BenchClock : public firestore::Clock {
 public:
  static constexpr firestore::Micros kEpochOffsetUs = 2LL * 3600 * 1'000'000;

  firestore::Micros NowMicros() const override {
    return kEpochOffsetUs + NowNanos() / 1000;
  }
};

// Sampled request traces, one log per thread.
using TraceLog = std::vector<std::unique_ptr<firestore::Trace>>;

// One client request, drawn from the seed before timing starts. The fields
// mean what the workload that drew it says.
struct Op {
  uint32_t kind = 0;
  uint32_t key = 0;
  int64_t arg = 0;
};

// What running one op produced.
struct Outcome {
  enum class Class { kCommit, kRead };
  Class cls = Class::kCommit;
  bool ok = true;       // false: the call failed or was refused
  int64_t wrong = 0;    // correctness mismatches found in its result
  int64_t results = 0;  // documents a query returned
};

// Counts from a correctness check run after the load stops.
struct CheckResult {
  int64_t attempted = 0;
  int64_t failed = 0;
};

// Generated load: per-client op lists; open-loop ops have fixed due times.
struct Schedule {
  int clients = 1;
  int64_t interval_ns = 0;  // between consecutive due times, all clients
  std::vector<std::vector<Op>> open;    // per client, in due order
  std::vector<std::vector<Op>> closed;  // per client, cycled in closed loops

  // Due time of client `client`'s k-th op, from the start of the open loop.
  int64_t DueOffsetNs(int client, int64_t k) const {
    return (k * clients + client) * interval_ns;
  }
};

struct WorkloadShape {
  int clients = 1;             // client threads; the pump thread is extra
  double rate = 0;             // offered open-loop ops/s over all clients
  int64_t pump_period_us = 0;  // FirestoreService::Pump period
  int64_t warmup_ops = 0;      // per client: untimed closed-loop ops first
  int setups = 1;              // set-ups timed for setup_s, the fastest kept
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual WorkloadShape shape() const = 0;

  // Draws client `client`'s next op.
  virtual Op NextOp(int client, firestore::Rng& rng) = 0;

  // Sees the whole generated schedule before timing starts, to precompute
  // what the checks expect.
  virtual void Plan(const Schedule& schedule) { (void)schedule; }

  // Replaces the service with a fresh one holding the loaded dataset and
  // registered listeners, and resets all per-run state. A non-null
  // `listen_traces` asks for a sample of Listen calls to be traced.
  virtual void Setup(const BenchClock* clock, TraceLog* listen_traces) = 0;

  virtual firestore::service::FirestoreService& service() = 0;

  // Called before the open loop's first op; `start_ns` is its time zero.
  virtual void BeginOpenLoop(int64_t start_ns) { (void)start_ns; }

  // Runs one op on client thread `client`. Ops of one client run in order.
  virtual Outcome Execute(int client, const Op& op) = 0;

  // Listener notifications timed so far: the latency from the write's due
  // time to the callback, in ns.
  virtual std::vector<int64_t> TakeNotifications() { return {}; }

  // Called once the clients and the pump thread have stopped: drains what
  // is in flight and checks the final state.
  virtual CheckResult Finish() = 0;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Runs one workload, printing each metric as "name value unit" and, as the
// last line, the result JSON. Returns the process exit code: non-zero when a
// correctness check failed.
int Run(const RunOptions& options);

std::unique_ptr<Workload> MakeKvMixed(uint64_t seed);
std::unique_ptr<Workload> MakeIndexQuery(uint64_t seed);
std::unique_ptr<Workload> MakeRealtimeFanout(uint64_t seed);

// Per-span-name self time over a set of traces: a span's duration minus the
// part of its interval that its children cover.
struct SpanSelf {
  double total_us = 0;
  int64_t count = 0;

  double mean_us() const { return count == 0 ? 0 : total_us / count; }
};
std::vector<std::pair<std::string, SpanSelf>> SelfTimes(
    const std::vector<const TraceLog*>& logs);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
