// FirestoreService: the multi-tenant assembly (paper §IV, Figure 4).
//
// One FirestoreService instance plays the role of a Firestore region: a
// small number of pre-initialized Spanner databases shared by every tenant
// (we model one), the Backend (committer + read service), the Real-time
// Cache (Changelog + Query Matcher over shared range ownership), Frontend
// tasks, billing, and the trigger pipeline. Creating a Firestore database
// is a metadata-only operation — this is what makes "initialize a database
// and go" serverless provisioning instant (§V-D) and idle databases free.

#ifndef FIRESTORE_SERVICE_SERVICE_H_
#define FIRESTORE_SERVICE_SERVICE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/committer.h"
#include "common/thread_annotations.h"
#include "backend/read_service.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "firestore/index/backfill.h"
#include "frontend/frontend.h"
#include "functions/functions.h"
#include "rtcache/changelog.h"
#include "rtcache/query_matcher.h"
#include "rtcache/range_ownership.h"
#include "spanner/database.h"

namespace firestore::service {

struct DatabaseOptions {
  // Security rules enforced for end-user requests; empty => deny every
  // end-user request until SetRules is called.
  std::string rules_source;
};

class FirestoreService {
 public:
  struct Options {
    // MVCC version retention (Spanner keeps ~1 hour): Pump() garbage
    // collects versions older than now - retention. Snapshot reads at or
    // after the horizon keep working; older reads are out of retention.
    Micros version_retention = 3'600'000'000;
    // Non-empty replaces the 16 uniform realtime ranges with explicit split
    // points (Slicer-style custom sharding; used by tests and benchmarks to
    // place range boundaries inside a tenant's key space).
    std::vector<std::string> realtime_split_points;
    // Passed through to the Frontend (out-of-sync recovery budget/backoff).
    frontend::Frontend::Options frontend_options;
  };

  explicit FirestoreService(const Clock* clock);
  FirestoreService(const Clock* clock, Options options);

  FirestoreService(const FirestoreService&) = delete;
  FirestoreService& operator=(const FirestoreService&) = delete;

  // -- Admin plane --

  Status CreateDatabase(const std::string& database_id,
                        DatabaseOptions options = {});
  Status DeleteDatabase(const std::string& database_id);
  bool DatabaseExists(const std::string& database_id) const;
  std::vector<std::string> ListDatabases() const;

  Status SetRules(const std::string& database_id, const std::string& source);
  Status AddFieldExemption(const std::string& database_id,
                           const std::string& collection_id,
                           const model::FieldPath& field);
  StatusOr<index::IndexId> CreateCompositeIndex(
      const std::string& database_id, const std::string& collection_id,
      std::vector<index::IndexSegment> segments);
  Status DropIndex(const std::string& database_id, index::IndexId id);

  Status RegisterTrigger(const std::string& database_id,
                         const std::string& function_name,
                         const std::vector<std::string>& pattern);

  // -- Data plane --
  //
  // One entry point per request, for both kinds of caller (paper §III-D,
  // §III-E). A null `auth` is a privileged Server SDK caller: security
  // rules are bypassed. Otherwise the request runs as that end user
  // (Mobile/Web SDK), checked against the database's security rules, and a
  // database with no rules denies it with PERMISSION_DENIED. The count,
  // aggregate and transaction calls are privileged only.

  StatusOr<backend::CommitResponse> Commit(
      const std::string& database_id,
      const std::vector<backend::Mutation>& mutations,
      const rules::AuthContext* auth = nullptr);
  StatusOr<std::optional<model::Document>> Get(
      const std::string& database_id, const model::ResourcePath& name,
      spanner::Timestamp read_ts = 0,
      const rules::AuthContext* auth = nullptr);
  StatusOr<backend::RunQueryResult> RunQuery(
      const std::string& database_id, const query::Query& q,
      spanner::Timestamp read_ts = 0,
      const rules::AuthContext* auth = nullptr);
  StatusOr<backend::RunCountResult> RunCountQuery(
      const std::string& database_id, const query::Query& q,
      spanner::Timestamp read_ts = 0);
  StatusOr<backend::RunAggregateResult> RunSumQuery(
      const std::string& database_id, const query::Query& q,
      const model::FieldPath& field, spanner::Timestamp read_ts = 0);
  StatusOr<backend::CommitResponse> RunTransaction(
      const std::string& database_id,
      const backend::Committer::TransactionBody& body);

  // -- Real-time --
  frontend::Frontend& frontend() { return *frontend_; }

  // Drives the asynchronous machinery one step: Changelog heartbeats and
  // Prepare expiry, Frontend query re-runs, trigger dispatch, Spanner
  // maintenance. Listeners hear commits without it, from the Accept.
  void Pump();

  // -- Introspection --

  // Operator view of the process: the full metrics snapshot
  // (docs/OBSERVABILITY.md) plus fault-point status, as text. Not a stable
  // format; for humans, tests, and bench dumps.
  std::string DebugDump() const;

  spanner::Database& spanner() { return spanner_; }
  backend::BillingLedger& billing() { return billing_; }
  functions::FunctionRegistry& functions() { return functions_; }
  rtcache::Changelog& changelog() { return *changelog_; }
  rtcache::QueryMatcher& matcher() { return matcher_; }
  backend::Committer& committer() { return committer_; }
  index::IndexCatalog* catalog(const std::string& database_id);
  const Clock& clock() const { return *clock_; }

 private:
  struct Tenant {
    // Requests per tenant (paper Fig. 6: tenant load spans nine orders of
    // magnitude); the registry label keeps the breakdown without a
    // per-tenant metric name. Resolved once at creation, so a request
    // naming an unknown database never mints a label.
    Counter* requests = nullptr;
    index::IndexCatalog catalog;
    // Read and replaced only under FirestoreService::mu_. SetRules and
    // RegisterTrigger replace them whole, so a request that copied them out
    // keeps what it read alive to its end.
    std::shared_ptr<const rules::RuleSet> rules;  // null => deny end users
    std::shared_ptr<const std::vector<backend::TriggerDefinition>> triggers =
        std::make_shared<const std::vector<backend::TriggerDefinition>>();
  };

  // A tenant as one request sees it, copied out under mu_. Shared ownership
  // keeps the tenant alive for the duration of a data-plane call even if
  // DeleteDatabase races it (the routing entry disappears immediately;
  // in-flight requests finish against the doomed tenant).
  struct TenantView {
    std::shared_ptr<Tenant> tenant;
    std::shared_ptr<const rules::RuleSet> rules;
    std::shared_ptr<const std::vector<backend::TriggerDefinition>> triggers;
  };
  StatusOr<TenantView> GetTenant(const std::string& database_id);

  const Clock* const clock_;
  const Options options_;
  spanner::Database spanner_;
  backend::BillingLedger billing_;
  // fslint: allow(guarded-member) -- stateless facade over the synchronized Database; wired once in the constructor
  backend::Committer committer_;
  // fslint: allow(guarded-member) -- stateless facade over the synchronized Database; wired once in the constructor
  backend::ReadService reader_;
  // fslint: allow(guarded-member) -- stateless facade over the synchronized Database; wired once in the constructor
  index::IndexBackfillService backfill_;
  const rtcache::RangeOwnership ranges_;
  rtcache::QueryMatcher matcher_;
  std::unique_ptr<rtcache::Changelog> changelog_;
  std::unique_ptr<frontend::Frontend> frontend_;
  functions::FunctionRegistry functions_;

  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<Tenant>> tenants_ FS_GUARDED_BY(mu_);
};

}  // namespace firestore::service

#endif  // FIRESTORE_SERVICE_SERVICE_H_
