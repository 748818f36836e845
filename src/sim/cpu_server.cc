#include "sim/cpu_server.h"

namespace firestore::sim {

bool CpuServer::Submit(const std::string& key, Micros cost,
                       std::function<void()> done, bool batch) {
  if (options_.max_queue != 0 && queued_ >= options_.max_queue) {
    ++shed_;
    return false;
  }
  // FIFO collapses every key into one queue.
  auto& band = batch ? batch_queues_ : queues_;
  band[options_.fair_share ? key : std::string()].push_back(
      Job{cost, std::move(done)});
  ++queued_;
  TryDispatch();
  return true;
}

bool CpuServer::PopFromBand(std::map<std::string, std::deque<Job>>& queues,
                            bool fair_share, std::string& cursor, Job* job) {
  if (!fair_share) {
    auto it = queues.find(std::string());
    if (it == queues.end() || it->second.empty()) return false;
    *job = std::move(it->second.front());
    it->second.pop_front();
    return true;
  }
  // Round-robin over non-empty per-key queues, starting after the cursor.
  auto it = queues.upper_bound(cursor);
  for (size_t i = 0; i <= queues.size(); ++i) {
    if (it == queues.end()) it = queues.begin();
    if (it == queues.end()) return false;  // no queues at all
    if (!it->second.empty()) {
      *job = std::move(it->second.front());
      it->second.pop_front();
      cursor = it->first;
      return true;
    }
    ++it;
  }
  return false;
}

bool CpuServer::PopNext(Job* job) {
  if (queued_ == 0) return false;
  // Latency-sensitive band first; batch only when it is drained.
  if (PopFromBand(queues_, options_.fair_share, rr_cursor_, job)) {
    --queued_;
    return true;
  }
  if (PopFromBand(batch_queues_, options_.fair_share, batch_rr_cursor_,
                  job)) {
    --queued_;
    return true;
  }
  return false;
}

void CpuServer::TryDispatch() {
  while (idle_workers_ > 0) {
    Job job;
    if (!PopNext(&job)) return;
    --idle_workers_;
    sim_->After(job.cost, [this, done = std::move(job.done)]() mutable {
      ++idle_workers_;
      ++completed_;
      if (done) done();
      TryDispatch();
    });
  }
}

void CpuServer::SetWorkers(int workers) {
  if (workers < 1) workers = 1;
  int delta = workers - options_.workers;
  options_.workers = workers;
  idle_workers_ += delta;
  // Note: shrinking can drive idle_workers_ negative; in-flight jobs finish
  // and the pool converges to the new size.
  if (delta > 0) TryDispatch();
}

}  // namespace firestore::sim
