// A simulated multi-worker CPU server with optional fair scheduling and
// priority bands.
//
// Models one Firestore component's task pool (e.g. the Backend). Jobs carry
// a scheduling key — the database id — and a cost in CPU-microseconds.
// With fair_share=false, jobs run FIFO; with fair_share=true, idle workers
// pick the next job round-robin across the per-key queues, implementing the
// fair-CPU-share scheduler of paper §IV-C ("we use a fair-CPU-share
// scheduler in our Backend tasks, keyed by database ID").
//
// Jobs tagged `batch` are only dispatched when no latency-sensitive job is
// queued (§IV-C: "certain batch and internal workloads set custom tags on
// their RPCs, which allow schedulers to prioritize latency-sensitive
// workloads over such RPCs").

#ifndef FIRESTORE_SIM_CPU_SERVER_H_
#define FIRESTORE_SIM_CPU_SERVER_H_

#include <deque>
#include <functional>
#include <map>
#include <string>

#include "sim/simulation.h"

namespace firestore::sim {

class CpuServer {
 public:
  struct Options {
    int workers = 1;
    bool fair_share = false;
    // Jobs queued beyond this are rejected (load shedding); 0 = unbounded.
    size_t max_queue = 0;
  };

  CpuServer(Simulation* sim, Options options)
      : sim_(sim), options_(options), idle_workers_(options.workers) {}

  // Enqueues a job; `done` runs at completion (latency = completion -
  // submit, computed by the caller from sim->now()). Batch jobs yield to
  // latency-sensitive ones. Returns false if shed.
  bool Submit(const std::string& key, Micros cost,
              std::function<void()> done, bool batch = false);

  // Adjusts the worker count (autoscaling); new workers start draining the
  // queue immediately.
  void SetWorkers(int workers);
  int workers() const { return options_.workers; }

  size_t queue_depth() const { return queued_; }
  int64_t completed() const { return completed_; }
  int64_t shed() const { return shed_; }

 private:
  struct Job {
    Micros cost;
    std::function<void()> done;
  };

  void TryDispatch();
  // Picks the next job honoring the discipline; false if none queued.
  bool PopNext(Job* job);
  static bool PopFromBand(std::map<std::string, std::deque<Job>>& queues,
                          bool fair_share, std::string& cursor, Job* job);

  Simulation* sim_;
  Options options_;
  int idle_workers_;
  size_t queued_ = 0;
  // FIFO discipline uses the single queue keyed ""; fair share uses one
  // queue per key with round-robin. Batch jobs wait in their own band.
  std::map<std::string, std::deque<Job>> queues_;
  std::map<std::string, std::deque<Job>> batch_queues_;
  std::string rr_cursor_;
  std::string batch_rr_cursor_;
  int64_t completed_ = 0;
  int64_t shed_ = 0;
};

}  // namespace firestore::sim

#endif  // FIRESTORE_SIM_CPU_SERVER_H_
