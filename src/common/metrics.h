// Process-global metric registry: named counters, gauges, and histogram
// timers with optional per-tenant labels (docs/OBSERVABILITY.md).
//
// Design goals, in priority order:
//  1. Lock-free hot path. Recording into an already-resolved metric touches
//     only relaxed atomics — never the registry lock, never a mutex. The
//     FS_METRIC_* macros resolve the registry entry once per call site
//     (function-local static reference), so steady-state recording is one
//     relaxed fetch_add.
//  2. Stable references. GetCounter/GetGauge/GetTimer return references
//     that stay valid for the process lifetime; metrics are never removed
//     (ResetForTest zeroes values but keeps the entries).
//  3. Deterministic export. Snapshots are sorted by (name, label), so two
//     identical runs produce byte-identical text/JSON dumps — CI diffs them.
//
// Naming convention (enforced by the fslint `metric-name-registry` rule):
// every FS_METRIC_* / FS_SPAN name used under src/ must be unique and listed
// in the docs/OBSERVABILITY.md catalog. Names are `module.noun[.verb]`
// (e.g. "rtcache.accepts", "spanner.lock.waits"). Dynamic dimensions
// (tenant, policy, fault point) go into the *label*, never the name, so the
// name space stays static and lintable.

#ifndef FIRESTORE_COMMON_METRICS_H_
#define FIRESTORE_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/histogram.h"
#include "common/thread_annotations.h"

namespace firestore {

// Monotonic event count. All methods are lock-free.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(int64_t by = 1) {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  std::atomic<int64_t> value_{0};
};

// Last-written level (queue depth, tenant count, ...). Lock-free.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  std::atomic<int64_t> value_{0};
};

// Latency distribution with lock-free recording. Shares Histogram's
// logarithmic bucket math (same <2% percentile error) but keeps the buckets
// in relaxed atomics so concurrent Record() calls never serialize; quantile
// queries read the live buckets without stopping writers.
class Timer {
 public:
  Timer();
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  void Record(Micros value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double Mean() const;
  // q in [0, 1]; e.g. Quantile(0.99) is p99. Returns 0 when empty.
  double Quantile(double q) const;
  Micros min() const { return min_.load(std::memory_order_relaxed); }
  Micros max() const { return max_.load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  void ResetForTest();

  std::vector<std::atomic<uint32_t>> buckets_;  // Histogram::kBucketCount
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<Micros> min_{0};
  std::atomic<Micros> max_{0};
};

// Records the elapsed time between construction and destruction into a
// Timer, using an injected clock (determinism rule: no wall clocks in src/).
// A null clock disables the measurement.
class ScopedTimer {
 public:
  ScopedTimer(Timer& timer, const Clock* clock)
      : timer_(timer),
        clock_(clock),
        start_(clock != nullptr ? clock->NowMicros() : 0) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (clock_ != nullptr) timer_.Record(clock_->NowMicros() - start_);
  }

 private:
  Timer& timer_;
  const Clock* const clock_;
  const Micros start_;
};

// One exported metric value at snapshot time.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kTimer };
  Kind kind = Kind::kCounter;
  std::string name;
  std::string label;  // empty for unlabeled metrics
  int64_t value = 0;  // counter/gauge value; timer count
  // Timer-only distribution summary (micros).
  double mean = 0, p50 = 0, p95 = 0, p99 = 0;
  Micros min = 0, max = 0;
};

// Deterministic point-in-time view of the registry, sorted by (name, label).
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  // "counter service.commits 12" / "timer x{label} count=..." lines.
  std::string ToText() const;
  // JSON array of objects, one per sample.
  std::string ToJson() const;
};

// The process-global registry. Lookup by (name, label) is reader-shared;
// first use of a new key takes the writer lock once. Returned references
// are stable for the process lifetime.
class MetricRegistry {
 public:
  static MetricRegistry& Global();

  Counter& GetCounter(std::string_view name, std::string_view label = "");
  Gauge& GetGauge(std::string_view name, std::string_view label = "");
  Timer& GetTimer(std::string_view name, std::string_view label = "");

  MetricsSnapshot Snapshot() const;

  // Test-only: zeroes every registered value (entries and references stay
  // valid) so two same-seed runs in one process can diff whole snapshots.
  void ResetForTest();

 private:
  MetricRegistry() = default;

  using Key = std::pair<std::string, std::string>;  // (name, label)

  mutable SharedMutex mu_;
  // std::map nodes are pointer-stable, so references returned under the
  // shared lock survive later inserts; values are never erased.
  std::map<Key, Counter> counters_ FS_GUARDED_BY(mu_);
  std::map<Key, Gauge> gauges_ FS_GUARDED_BY(mu_);
  std::map<Key, Timer> timers_ FS_GUARDED_BY(mu_);
};

}  // namespace firestore

// Call-site macros. The unlabeled forms resolve the registry entry once per
// site (function-local static reference): after first use, the expression is
// a single static load — no registry lock, no map lookup. The labeled
// FS_METRIC_COUNTER_FOR takes a dynamic label (tenant id, policy name) and
// pays one shared-lock map lookup per call; use it off the per-row hot path.
//
// The fslint metric-name-registry rule requires `name` to be a unique string
// literal catalogued in docs/OBSERVABILITY.md (src/ only).
#define FS_METRIC_COUNTER(name)                                         \
  ([]() -> ::firestore::Counter& {                                      \
    static ::firestore::Counter& fs_metric =                            \
        ::firestore::MetricRegistry::Global().GetCounter(name);         \
    return fs_metric;                                                   \
  }())

#define FS_METRIC_GAUGE(name)                                           \
  ([]() -> ::firestore::Gauge& {                                        \
    static ::firestore::Gauge& fs_metric =                              \
        ::firestore::MetricRegistry::Global().GetGauge(name);           \
    return fs_metric;                                                   \
  }())

#define FS_METRIC_TIMER(name)                                           \
  ([]() -> ::firestore::Timer& {                                        \
    static ::firestore::Timer& fs_metric =                              \
        ::firestore::MetricRegistry::Global().GetTimer(name);           \
    return fs_metric;                                                   \
  }())

#define FS_METRIC_COUNTER_FOR(name, label) \
  (::firestore::MetricRegistry::Global().GetCounter(name, label))

#endif  // FIRESTORE_COMMON_METRICS_H_
