#include "backend/billing.h"

#include <algorithm>

namespace firestore::backend {

void BillingLedger::RecordReads(const std::string& database_id,
                                int64_t count) {
  MutexLock lock(&mu_);
  usage_[database_id].document_reads += count;
}

void BillingLedger::RecordWrites(const std::string& database_id,
                                 int64_t count) {
  MutexLock lock(&mu_);
  usage_[database_id].document_writes += count;
}

void BillingLedger::RecordDeletes(const std::string& database_id,
                                  int64_t count) {
  MutexLock lock(&mu_);
  usage_[database_id].document_deletes += count;
}

void BillingLedger::AdjustStorage(const std::string& database_id,
                                  int64_t delta_bytes) {
  MutexLock lock(&mu_);
  usage_[database_id].storage_bytes += delta_bytes;
}

UsageCounters BillingLedger::Usage(const std::string& database_id) const {
  MutexLock lock(&mu_);
  auto it = usage_.find(database_id);
  return it == usage_.end() ? UsageCounters() : it->second;
}

double BillingLedger::BillableMicrosToday(const std::string& database_id,
                                          const PriceList& prices) const {
  UsageCounters u = Usage(database_id);
  auto over = [](int64_t used, int64_t free) {
    return static_cast<double>(std::max<int64_t>(0, used - free));
  };
  double total = 0;
  total += over(u.document_reads, quota_.reads_per_day) / 100'000.0 *
           prices.per_100k_reads;
  total += over(u.document_writes, quota_.writes_per_day) / 100'000.0 *
           prices.per_100k_writes;
  total += over(u.document_deletes, quota_.deletes_per_day) / 100'000.0 *
           prices.per_100k_deletes;
  total += over(u.storage_bytes, quota_.storage_bytes) /
           static_cast<double>(1ll << 30) * prices.per_gib_month_storage /
           30.0;
  return total;
}

void BillingLedger::ResetDay() {
  MutexLock lock(&mu_);
  for (auto& [id, u] : usage_) {
    u.document_reads = 0;
    u.document_writes = 0;
    u.document_deletes = 0;
    // storage_bytes persists across days.
  }
}

}  // namespace firestore::backend
