// Admission control and emergency isolation tooling.
//
// Paper §IV-C: Firestore "limit[s] the result-set size and the amount of
// work done for a single RPC", defines *conforming traffic* ("increase at
// most 50% every 5 minutes, starting from a 500 QPS base"), and does
// "targeted load-shedding to drop excess work before auto-scaling can take
// effect".
//
// Paper §VI: two manual mitigation tools — "a low-tech manual tool that
// limits the number of per-task in-flight RPCs for a given database", and
// routing "all traffic for that database ... to a separate pool (of tasks)
// for the impacted component, thereby isolating it completely."

#ifndef FIRESTORE_BACKEND_ADMISSION_H_
#define FIRESTORE_BACKEND_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "common/clock.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace firestore::backend {

// Tracks a database's offered load against the conforming-traffic ramp
// (500 QPS base, at most +50% per 5 minutes). Non-conforming traffic is
// *reported*, not rejected — "Firestore ... will still accept traffic that
// violates this rule as long as it can maintain isolation."
class TrafficRampTracker {
 public:
  struct Options {
    double base_qps = 500;
    double growth_factor = 1.5;
    Micros growth_period = 300'000'000;  // 5 minutes
    Micros window = 1'000'000;           // QPS sampling window
  };

  TrafficRampTracker(const Clock* clock, Options options)
      : clock_(clock), options_(options) {}
  explicit TrafficRampTracker(const Clock* clock)
      : TrafficRampTracker(clock, Options()) {}

  // Records one request for `database_id`; returns true if the database's
  // current rate conforms to the documented ramp.
  bool Record(const std::string& database_id);

  // The rate currently allowed by the ramp for this database.
  double AllowedQps(const std::string& database_id) const;
  double CurrentQps(const std::string& database_id) const;

 private:
  struct State {
    Micros ramp_start = 0;    // when sustained traffic began
    std::deque<Micros> recent;  // request times within the window
  };

  const Clock* const clock_;
  const Options options_;
  mutable Mutex mu_;
  std::map<std::string, State> per_db_ FS_GUARDED_BY(mu_);
};

// Per-database in-flight RPC limiter + isolated-pool routing flags: a
// library that the ops tooling (examples/ops_tooling.cpp) and the tests
// drive. FirestoreService does not call Admit(); a caller that wants the
// limit calls Admit() before work and releases the Ticket after.
class AdmissionController {
 public:
  struct Options {
    // Default per-database in-flight cap (0 = unlimited).
    int default_inflight_limit = 0;
    // Hint attached to RESOURCE_EXHAUSTED rejections (common/retry.h
    // WithRetryAfter): how long rejected callers should back off before
    // their next attempt.
    Micros rejection_retry_after = 50'000;
  };

  AdmissionController() = default;
  explicit AdmissionController(Options options) : options_(options) {}

  // RAII admission ticket.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(AdmissionController* controller, std::string database_id)
        : controller_(controller), database_id_(std::move(database_id)) {}
    Ticket(Ticket&& other) noexcept { *this = std::move(other); }
    Ticket& operator=(Ticket&& other) noexcept {
      Release();
      controller_ = other.controller_;
      database_id_ = std::move(other.database_id_);
      other.controller_ = nullptr;
      return *this;
    }
    ~Ticket() { Release(); }

    void Release();

   private:
    AdmissionController* controller_ = nullptr;
    std::string database_id_;
  };

  // RESOURCE_EXHAUSTED when the database is over its in-flight limit.
  StatusOr<Ticket> Admit(const std::string& database_id);

  // -- The §VI manual tools --

  // Caps in-flight RPCs for one database (the "low-tech manual tool").
  void SetInflightLimit(const std::string& database_id, int limit);
  void ClearInflightLimit(const std::string& database_id);

  // Routes the database to an isolated task pool. The routing decision is
  // exposed for a dispatch layer to honor; the service has none.
  void RouteToIsolatedPool(const std::string& database_id,
                           const std::string& pool_name);
  void ClearIsolatedPool(const std::string& database_id);
  std::string PoolFor(const std::string& database_id) const;

  int inflight(const std::string& database_id) const;
  int64_t rejected() const;

 private:
  friend class Ticket;
  void ReleaseOne(const std::string& database_id);

  const Options options_;
  mutable Mutex mu_;
  std::map<std::string, int> inflight_ FS_GUARDED_BY(mu_);
  std::map<std::string, int> limits_ FS_GUARDED_BY(mu_);
  std::map<std::string, std::string> pools_ FS_GUARDED_BY(mu_);
  int64_t rejected_ FS_GUARDED_BY(mu_) = 0;
};

}  // namespace firestore::backend

#endif  // FIRESTORE_BACKEND_ADMISSION_H_
