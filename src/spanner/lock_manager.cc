#include "spanner/lock_manager.h"

#include <algorithm>

#include "common/fault_injection.h"
#include "common/metrics.h"

namespace firestore::spanner {

namespace {

Status WoundedError() {
  return AbortedError("transaction wounded by an older transaction");
}

}  // namespace

LockManager::Holder* LockManager::Holders::Find(TxnId txn) {
  if (!has_first_) return nullptr;
  if (first_.txn == txn) return &first_;
  auto it = std::find_if(more_.begin(), more_.end(),
                         [txn](const Holder& h) { return h.txn == txn; });
  return it == more_.end() ? nullptr : &*it;
}

void LockManager::Holders::Add(Holder holder) {
  if (has_first_) {
    more_.push_back(holder);
  } else {
    first_ = holder;
    has_first_ = true;
  }
}

void LockManager::Holders::Remove(TxnId txn) {
  Holder* holder = Find(txn);
  if (holder == nullptr) return;
  if (more_.empty()) {
    has_first_ = false;
    return;
  }
  *holder = more_.back();
  more_.pop_back();
}

bool LockManager::Compatible(const Holders& holders, TxnId txn,
                             LockMode mode) {
  bool compatible = true;
  holders.ForEach([&](const Holder& holder) {
    if (holder.txn == txn) return;  // own locks never conflict
    if (mode == LockMode::kExclusive || holder.mode == LockMode::kExclusive) {
      compatible = false;
    }
  });
  return compatible;
}

Status LockManager::WaitLocked(TxnId txn, const Holders& holders,
                               int64_t timeout_ms, Deadline deadline) {
  // Wound-wait: wound every younger holder, then wait.
  bool wounded_someone = false;
  holders.ForEach([&](const Holder& holder) {
    if (holder.txn > txn) {  // younger
      wounded_.insert(holder.txn);
      wounded_someone = true;
      FS_METRIC_COUNTER("spanner.lock.wounds").Increment();
    }
  });
  if (wounded_someone) cv_.NotifyAll();
  FS_METRIC_COUNTER("spanner.lock.waits").Increment();
  if (timeout_ms > 0) {
    if (!cv_.WaitUntil(&mu_, deadline)) {
      FS_METRIC_COUNTER("spanner.lock.timeouts").Increment();
      return DeadlineExceededError("lock wait timeout");
    }
  } else {
    cv_.Wait(&mu_);
  }
  if (wounded_.count(txn) != 0) return WoundedError();
  return Status::Ok();
}

Status LockManager::AcquireAll(TxnId txn, std::span<std::string> keys,
                               LockMode mode, int64_t timeout_ms) {
  RETURN_IF_ERROR(FS_FAULT_POINT("spanner.lock.acquire"));
  const Deadline deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  MutexLock lock(&mu_);
  // A wound arrives only while mu_ is free, so during a wait.
  if (wounded_.count(txn) != 0) return WoundedError();
  std::vector<Entry*>* held = &held_[txn];
  for (std::string& key : keys) {
    auto it = locks_.find(key);
    while (it != locks_.end() && !Compatible(it->second, txn, mode)) {
      RETURN_IF_ERROR(WaitLocked(txn, it->second, timeout_ms, deadline));
      // While mu_ was free, the release that woke us may have erased the
      // entry (a waiter holds only its own key) and inserts may have
      // rehashed the table, so look the key up again.
      held = &held_[txn];
      it = locks_.find(key);
    }
    if (it == locks_.end()) {
      it = locks_.try_emplace(std::move(key)).first;
    }
    Holders& holders = it->second;
    if (Holder* self = holders.Find(txn); self != nullptr) {
      if (mode == LockMode::kExclusive) self->mode = mode;  // upgrade
    } else {
      holders.Add({txn, mode});
      held->push_back(&*it);
    }
  }
  return Status::Ok();
}

void LockManager::ReleaseAll(TxnId txn) {
  MutexLock lock(&mu_);
  if (auto it = held_.find(txn); it != held_.end()) {
    for (Entry* entry : it->second) {
      entry->second.Remove(txn);
      if (entry->second.empty()) locks_.erase(locks_.find(entry->first));
    }
    held_.erase(it);
  }
  wounded_.erase(txn);
  cv_.NotifyAll();
}

void LockManager::Wound(TxnId txn) {
  MutexLock lock(&mu_);
  wounded_.insert(txn);
  cv_.NotifyAll();
}

bool LockManager::IsWounded(TxnId txn) const {
  MutexLock lock(&mu_);
  return wounded_.count(txn) != 0;
}

int LockManager::LockCount() const {
  MutexLock lock(&mu_);
  return static_cast<int>(locks_.size());
}

}  // namespace firestore::spanner
