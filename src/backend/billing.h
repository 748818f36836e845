// Operation-based billing with a daily free quota (paper §IV-B): customers
// pay per document read/write/delete and for storage, so "billing increases
// reflect application success"; idle databases cost nothing.

#ifndef FIRESTORE_BACKEND_BILLING_H_
#define FIRESTORE_BACKEND_BILLING_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/thread_annotations.h"

namespace firestore::backend {

struct UsageCounters {
  int64_t document_reads = 0;
  int64_t document_writes = 0;
  int64_t document_deletes = 0;
  int64_t storage_bytes = 0;        // current footprint
};

// Per-day free allowances, modeled on Firestore's published free tier.
struct FreeQuota {
  int64_t reads_per_day = 50'000;
  int64_t writes_per_day = 20'000;
  int64_t deletes_per_day = 20'000;
  int64_t storage_bytes = 1ll << 30;  // 1 GiB
};

// Per-operation prices (micro-dollars), for the billing report.
struct PriceList {
  double per_100k_reads = 0.06e6;    // $0.06 per 100k
  double per_100k_writes = 0.18e6;
  double per_100k_deletes = 0.02e6;
  double per_gib_month_storage = 0.18e6;
};

// Thread-safe per-database usage ledger.
class BillingLedger {
 public:
  explicit BillingLedger(FreeQuota quota = FreeQuota())
      : quota_(quota) {}

  void RecordReads(const std::string& database_id, int64_t count);
  void RecordWrites(const std::string& database_id, int64_t count);
  void RecordDeletes(const std::string& database_id, int64_t count);
  void AdjustStorage(const std::string& database_id, int64_t delta_bytes);

  UsageCounters Usage(const std::string& database_id) const;

  // Amount billable today in micro-dollars after the free quota
  // (storage prorated per day).
  double BillableMicrosToday(const std::string& database_id,
                             const PriceList& prices = PriceList()) const;

  // Daily quota reset.
  void ResetDay();

 private:
  const FreeQuota quota_;
  mutable Mutex mu_;
  std::map<std::string, UsageCounters> usage_ FS_GUARDED_BY(mu_);
};

}  // namespace firestore::backend

#endif  // FIRESTORE_BACKEND_BILLING_H_
