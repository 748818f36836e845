// Deterministic fault-injection framework.
//
// The paper's write path is failure-driven: contention is resolved "by
// failing and retrying such transactions", a failed Real-time Cache Prepare
// fails the write, expired Prepares mark ranges out-of-sync, and listeners
// recover via snapshot resets. Every one of those legs is exercised through
// *named fault points* threaded through the layers:
//
//   Status s = FS_FAULT_POINT("spanner.txn.commit");   // status-returning
//   if (FS_FAULT_TRIGGERED("rtcache.accept.drop")) return;  // drop sites
//
// Fault points are registered in the global FaultRegistry (lazily, the first
// time control flows through them) and are disarmed by default. Tests and
// chaos harnesses arm them with a FaultConfig: a seeded firing probability, a
// trigger window (skip the first N hits, fire at most M times), and an
// action — return a given Status, add latency via the injected Clock, or
// drop the message at the site.
//
// Disarmed cost: one function-local static guard plus one relaxed atomic
// load and a predictable branch. No registry lookup, no lock, no allocation
// — measured unobservable on the YCSB update hot path (docs/ROBUSTNESS.md).
//
// The registry is process-global (fault points are identified by name, not
// by component instance), which is what makes a single chaos schedule able
// to reach every layer at once. Unit tests arm points with ScopedFault.

#ifndef FIRESTORE_COMMON_FAULT_INJECTION_H_
#define FIRESTORE_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace firestore {

// What an armed fault point does when it fires.
struct FaultAction {
  enum class Kind {
    kReturnStatus,  // status sites return `status`; drop sites trigger
    kLatency,       // advance the injected ManualClock (or sleep) by `latency`
    kDrop,          // drop sites trigger; status sites treat as no-op
  };

  Kind kind = Kind::kReturnStatus;
  Status status = Status(StatusCode::kUnavailable, "injected fault");
  Micros latency = 0;

  static FaultAction Fail(Status s) {
    FaultAction a;
    a.kind = Kind::kReturnStatus;
    a.status = std::move(s);
    return a;
  }
  static FaultAction Latency(Micros us) {
    FaultAction a;
    a.kind = Kind::kLatency;
    a.latency = us;
    return a;
  }
  static FaultAction Drop() {
    FaultAction a;
    a.kind = Kind::kDrop;
    return a;
  }
};

// Arming configuration for one fault point. Defaults fire on every hit.
struct FaultConfig {
  // Chance of firing per eligible hit, decided by a per-point Rng seeded
  // with `seed` at Arm() time — the sequence of fire/no-fire decisions for a
  // point is a pure function of (seed, hit index).
  double probability = 1.0;
  uint64_t seed = 1;

  // Trigger window: let the first `skip_first` hits pass untouched, then
  // fire at most `max_fires` times (-1 = unlimited).
  int skip_first = 0;
  int max_fires = -1;

  FaultAction action;
};

// Point statistics, for tests and debugging. `hits`/`fires` count within
// the current arm window (re-arming resets them along with the trigger
// window); `total_hits`/`total_fires` accumulate over the process lifetime
// and survive re-arms — chaos harnesses that re-arm points per schedule
// window sum these to prove the schedule was non-vacuous.
struct FaultPointStats {
  std::string name;
  bool armed = false;
  int64_t hits = 0;   // evaluations while armed, since the last Arm()
  int64_t fires = 0;  // times the action fired, since the last Arm()
  int64_t total_hits = 0;
  int64_t total_fires = 0;
};

// Global registry of named fault points.
class FaultRegistry {
 public:
  static FaultRegistry& Global();

  // Fast disarmed check, inlined into every fault point.
  static bool AnyArmed() {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  // Arms `name` with `config` (re-arming replaces the config and resets the
  // hit/fire window and the Rng). The point does not need to have been
  // reached yet.
  void Arm(const std::string& name, FaultConfig config);
  void Disarm(const std::string& name);
  void DisarmAll();

  // Latency actions advance this clock when set; otherwise they sleep for
  // real. Pass nullptr to restore sleeping.
  void SetLatencyClock(ManualClock* clock);

  // Records `name` as a known fault point (called by the FS_FAULT_* macros
  // on first execution; idempotent).
  void RegisterPoint(const char* name);

  // Every point ever registered or armed, sorted by name.
  std::vector<FaultPointStats> KnownPoints() const;
  // Just the names of KnownPoints(), sorted — the cheap form for catalog
  // cross-checks (tests compare this against docs/ROBUSTNESS.md).
  std::vector<std::string> ListPoints() const;
  FaultPointStats StatsFor(const std::string& name) const;

  // Slow paths behind the macros. Evaluate returns the injected Status (or
  // OK); EvaluateTriggered reports whether the point fired at all, for
  // drop/reorder sites. Both apply latency actions as a side effect.
  Status Evaluate(std::string_view name);
  bool EvaluateTriggered(std::string_view name);

 private:
  struct PointState {
    FaultConfig config;
    bool armed = false;
    int64_t hits = 0;         // window counters: reset by Arm()
    int64_t fires = 0;
    int64_t total_hits = 0;   // lifetime counters: never reset
    int64_t total_fires = 0;
    std::unique_ptr<Rng> rng;
  };

  FaultRegistry() = default;

  // Returns true and copies the action out if the point fired.
  bool FireLocked(std::string_view name, FaultAction* action)
      FS_REQUIRES(mu_);
  void ApplyLatency(Micros latency);

  inline static std::atomic<int> armed_count_{0};

  mutable Mutex mu_;
  std::map<std::string, PointState, std::less<>> points_ FS_GUARDED_BY(mu_);
  std::atomic<ManualClock*> latency_clock_{nullptr};
};

// RAII arming: disarms the point on scope exit. The unit-test idiom — a
// leaked armed point would silently poison every later test in the binary.
class ScopedFault {
 public:
  ScopedFault(std::string name, FaultConfig config) : name_(std::move(name)) {
    FaultRegistry::Global().Arm(name_, std::move(config));
  }
  explicit ScopedFault(std::string name)
      : ScopedFault(std::move(name), FaultConfig()) {}
  ~ScopedFault() { FaultRegistry::Global().Disarm(name_); }

  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  std::string name_;
};

namespace internal {
struct FaultPointRegistration {
  explicit FaultPointRegistration(const char* name) {
    FaultRegistry::Global().RegisterPoint(name);
  }
};
}  // namespace internal

}  // namespace firestore

// Status-returning fault point: evaluates to Status::Ok() unless `name` is
// armed and fires, in which case the configured Status is returned (latency
// actions apply the delay and return OK). Use with RETURN_IF_ERROR.
#define FS_FAULT_POINT(name)                                                 \
  ([]() -> ::firestore::Status {                                             \
    static const ::firestore::internal::FaultPointRegistration fs_reg{name}; \
    (void)fs_reg;                                                            \
    if (!::firestore::FaultRegistry::AnyArmed()) {                           \
      return ::firestore::Status::Ok();                                      \
    }                                                                        \
    return ::firestore::FaultRegistry::Global().Evaluate(name);              \
  }())

// Boolean fault point for drop/reorder/structured sites: true when `name`
// is armed and fires this hit.
#define FS_FAULT_TRIGGERED(name)                                             \
  ([]() -> bool {                                                            \
    static const ::firestore::internal::FaultPointRegistration fs_reg{name}; \
    (void)fs_reg;                                                            \
    if (!::firestore::FaultRegistry::AnyArmed()) return false;               \
    return ::firestore::FaultRegistry::Global().EvaluateTriggered(name);     \
  }())

#endif  // FIRESTORE_COMMON_FAULT_INJECTION_H_
