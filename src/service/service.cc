#include "service/service.h"

#include <sstream>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "firestore/index/layout.h"

namespace firestore::service {

using backend::CommitResponse;
using backend::Mutation;
using model::Document;
using model::ResourcePath;
using spanner::Timestamp;

namespace {

// Single call site for the tenant-count gauge (metric names are one-site,
// like fault points; see the fslint metric-name-registry rule).
void SetTenantGauge(size_t tenants) {
  FS_METRIC_GAUGE("service.tenants").Set(static_cast<int64_t>(tenants));
}

// Realtime ranges when no explicit split points are given.
constexpr int kRealtimeRanges = 16;

// The one decision between privileged and rules-checked access: no rules
// for a null `auth` (a Server SDK caller); for an end user the tenant's
// `rules`, or PERMISSION_DENIED when it has none.
StatusOr<std::shared_ptr<const rules::RuleSet>> RulesFor(
    const rules::AuthContext* auth,
    std::shared_ptr<const rules::RuleSet> rules) {
  if (auth == nullptr) return std::shared_ptr<const rules::RuleSet>();
  if (rules == nullptr) {
    return PermissionDeniedError(
        "third-party access requires security rules");
  }
  return rules;
}

}  // namespace

FirestoreService::FirestoreService(const Clock* clock)
    : FirestoreService(clock, Options()) {}

FirestoreService::FirestoreService(const Clock* clock, Options options)
    : clock_(clock),
      options_(options),
      spanner_(clock),
      committer_(&spanner_, clock),
      reader_(&spanner_),
      backfill_(&spanner_),
      ranges_(options.realtime_split_points.empty()
                  ? rtcache::RangeOwnership::Uniform(kRealtimeRanges)
                  : rtcache::RangeOwnership(options.realtime_split_points)) {
  FS_CHECK_OK(spanner_.CreateTable(index::kEntitiesTable));
  FS_CHECK_OK(spanner_.CreateTable(index::kIndexEntriesTable));
  changelog_ =
      std::make_unique<rtcache::Changelog>(clock, &ranges_, &matcher_);
  committer_.set_realtime(changelog_.get());
  committer_.set_billing(&billing_);
  reader_.set_billing(&billing_);
  frontend_ = std::make_unique<frontend::Frontend>(
      clock, &reader_, &matcher_, &ranges_,
      [this](const std::string& db, const rules::AuthContext* auth)
          -> StatusOr<frontend::TenantAccess> {
        ASSIGN_OR_RETURN(TenantView view, GetTenant(db));
        frontend::TenantAccess access;
        ASSIGN_OR_RETURN(access.rules, RulesFor(auth, std::move(view.rules)));
        access.catalog = &view.tenant->catalog;
        access.keepalive = std::move(view.tenant);
        return access;
      },
      options.frontend_options);
}

Status FirestoreService::CreateDatabase(const std::string& database_id,
                                        DatabaseOptions options) {
  if (database_id.empty()) {
    return InvalidArgumentError("empty database id");
  }
  auto tenant = std::make_shared<Tenant>();
  if (!options.rules_source.empty()) {
    ASSIGN_OR_RETURN(rules::RuleSet parsed,
                     rules::RuleSet::Parse(options.rules_source));
    tenant->rules = std::make_shared<const rules::RuleSet>(std::move(parsed));
  }
  tenant->requests =
      &FS_METRIC_COUNTER_FOR("service.tenant.requests", database_id);
  MutexLock lock(&mu_);
  if (tenants_.count(database_id) != 0) {
    return AlreadyExistsError("database exists: " + database_id);
  }
  tenants_.emplace(database_id, std::move(tenant));
  SetTenantGauge(tenants_.size());
  return Status::Ok();
}

Status FirestoreService::DeleteDatabase(const std::string& database_id) {
  {
    MutexLock lock(&mu_);
    if (tenants_.erase(database_id) == 0) {
      return NotFoundError("no such database: " + database_id);
    }
    SetTenantGauge(tenants_.size());
  }
  // Physically remove the tenant's rows (both tables share the database-id
  // prefix).
  const std::string prefix = index::EntityKeyPrefixForDatabase(database_id);
  for (const char* table : {index::kEntitiesTable, index::kIndexEntriesTable}) {
    RETURN_IF_ERROR(spanner_.DeletePrefix(table, prefix));
  }
  return Status::Ok();
}

bool FirestoreService::DatabaseExists(const std::string& database_id) const {
  MutexLock lock(&mu_);
  return tenants_.count(database_id) != 0;
}

std::vector<std::string> FirestoreService::ListDatabases() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  for (const auto& [name, tenant] : tenants_) names.push_back(name);
  return names;
}

StatusOr<FirestoreService::TenantView> FirestoreService::GetTenant(
    const std::string& database_id) {
  MutexLock lock(&mu_);
  auto it = tenants_.find(database_id);
  if (it == tenants_.end()) {
    return NotFoundError("no such database: " + database_id);
  }
  return TenantView{it->second, it->second->rules, it->second->triggers};
}

Status FirestoreService::SetRules(const std::string& database_id,
                                  const std::string& source) {
  ASSIGN_OR_RETURN(rules::RuleSet parsed, rules::RuleSet::Parse(source));
  ASSIGN_OR_RETURN(TenantView view, GetTenant(database_id));
  auto rules = std::make_shared<const rules::RuleSet>(std::move(parsed));
  MutexLock lock(&mu_);
  view.tenant->rules = std::move(rules);
  return Status::Ok();
}

Status FirestoreService::AddFieldExemption(const std::string& database_id,
                                           const std::string& collection_id,
                                           const model::FieldPath& field) {
  ASSIGN_OR_RETURN(TenantView view, GetTenant(database_id));
  return backfill_.ExemptField(view.tenant->catalog, database_id,
                               collection_id, field);
}

StatusOr<index::IndexId> FirestoreService::CreateCompositeIndex(
    const std::string& database_id, const std::string& collection_id,
    std::vector<index::IndexSegment> segments) {
  ASSIGN_OR_RETURN(TenantView view, GetTenant(database_id));
  return backfill_.CreateIndex(view.tenant->catalog, database_id,
                               collection_id, std::move(segments));
}

Status FirestoreService::DropIndex(const std::string& database_id,
                                   index::IndexId id) {
  ASSIGN_OR_RETURN(TenantView view, GetTenant(database_id));
  return backfill_.DropIndex(view.tenant->catalog, database_id, id);
}

Status FirestoreService::RegisterTrigger(
    const std::string& database_id, const std::string& function_name,
    const std::vector<std::string>& pattern) {
  ASSIGN_OR_RETURN(TenantView view, GetTenant(database_id));
  backend::TriggerDefinition def;
  def.function_name = function_name;
  def.pattern = pattern;
  MutexLock lock(&mu_);
  auto triggers = std::make_shared<std::vector<backend::TriggerDefinition>>(
      *view.tenant->triggers);
  triggers->push_back(std::move(def));
  view.tenant->triggers = std::move(triggers);
  return Status::Ok();
}

StatusOr<CommitResponse> FirestoreService::Commit(
    const std::string& database_id, const std::vector<Mutation>& mutations,
    const rules::AuthContext* auth) {
  FS_SPAN("service.commit");
  ScopedTimer timer(FS_METRIC_TIMER("service.commit.latency"), clock_);
  FS_METRIC_COUNTER("service.commits").Increment();
  RETURN_IF_ERROR(FS_FAULT_POINT("service.commit"));
  ASSIGN_OR_RETURN(TenantView view, GetTenant(database_id));
  view.tenant->requests->Increment();
  ASSIGN_OR_RETURN(std::shared_ptr<const rules::RuleSet> rules,
                   RulesFor(auth, std::move(view.rules)));
  return committer_.Commit(database_id, view.tenant->catalog, mutations,
                           *view.triggers, rules.get(), auth);
}

StatusOr<std::optional<Document>> FirestoreService::Get(
    const std::string& database_id, const ResourcePath& name,
    Timestamp read_ts, const rules::AuthContext* auth) {
  FS_SPAN("service.get");
  ScopedTimer timer(FS_METRIC_TIMER("service.get.latency"), clock_);
  FS_METRIC_COUNTER("service.gets").Increment();
  RETURN_IF_ERROR(FS_FAULT_POINT("service.get"));
  ASSIGN_OR_RETURN(TenantView view, GetTenant(database_id));
  view.tenant->requests->Increment();
  ASSIGN_OR_RETURN(std::shared_ptr<const rules::RuleSet> rules,
                   RulesFor(auth, std::move(view.rules)));
  return reader_.GetDocument(database_id, name, read_ts, rules.get(), auth);
}

StatusOr<backend::RunQueryResult> FirestoreService::RunQuery(
    const std::string& database_id, const query::Query& q,
    Timestamp read_ts, const rules::AuthContext* auth) {
  FS_SPAN("service.query");
  ScopedTimer timer(FS_METRIC_TIMER("service.query.latency"), clock_);
  FS_METRIC_COUNTER("service.queries").Increment();
  RETURN_IF_ERROR(FS_FAULT_POINT("service.query"));
  ASSIGN_OR_RETURN(TenantView view, GetTenant(database_id));
  view.tenant->requests->Increment();
  ASSIGN_OR_RETURN(std::shared_ptr<const rules::RuleSet> rules,
                   RulesFor(auth, std::move(view.rules)));
  return reader_.RunQuery(database_id, view.tenant->catalog, q, read_ts,
                          rules.get(), auth);
}

StatusOr<backend::RunCountResult> FirestoreService::RunCountQuery(
    const std::string& database_id, const query::Query& q,
    Timestamp read_ts) {
  FS_SPAN("service.count_query");
  ScopedTimer timer(FS_METRIC_TIMER("service.count_query.latency"), clock_);
  FS_METRIC_COUNTER("service.count_queries").Increment();
  RETURN_IF_ERROR(FS_FAULT_POINT("service.count_query"));
  ASSIGN_OR_RETURN(TenantView view, GetTenant(database_id));
  view.tenant->requests->Increment();
  return reader_.RunCountQuery(database_id, view.tenant->catalog, q,
                               read_ts);
}

StatusOr<backend::RunAggregateResult> FirestoreService::RunSumQuery(
    const std::string& database_id, const query::Query& q,
    const model::FieldPath& field, Timestamp read_ts) {
  FS_SPAN("service.sum_query");
  ScopedTimer timer(FS_METRIC_TIMER("service.sum_query.latency"), clock_);
  FS_METRIC_COUNTER("service.sum_queries").Increment();
  RETURN_IF_ERROR(FS_FAULT_POINT("service.sum_query"));
  ASSIGN_OR_RETURN(TenantView view, GetTenant(database_id));
  view.tenant->requests->Increment();
  return reader_.RunSumQuery(database_id, view.tenant->catalog, q, field,
                             read_ts);
}

StatusOr<CommitResponse> FirestoreService::RunTransaction(
    const std::string& database_id,
    const backend::Committer::TransactionBody& body) {
  FS_SPAN("service.run_transaction");
  FS_METRIC_COUNTER("service.transactions").Increment();
  RETURN_IF_ERROR(FS_FAULT_POINT("service.run_transaction"));
  ASSIGN_OR_RETURN(TenantView view, GetTenant(database_id));
  view.tenant->requests->Increment();
  return committer_.RunTransaction(database_id, view.tenant->catalog, body,
                                   *view.triggers);
}

index::IndexCatalog* FirestoreService::catalog(
    const std::string& database_id) {
  MutexLock lock(&mu_);
  auto it = tenants_.find(database_id);
  return it == tenants_.end() ? nullptr : &it->second->catalog;
}

std::string FirestoreService::DebugDump() const {
  std::ostringstream os;
  os << "== metrics ==\n";
  os << MetricRegistry::Global().Snapshot().ToText();
  os << "== fault points ==\n";
  for (const FaultPointStats& point : FaultRegistry::Global().KnownPoints()) {
    os << point.name << (point.armed ? " armed" : " idle")
       << " hits=" << point.total_hits << " fires=" << point.total_fires
       << "\n";
  }
  return os.str();
}

void FirestoreService::Pump() {
  changelog_->Tick();
  frontend_->Pump();
  functions_.DispatchPending(spanner_);
  spanner_.RunLoadSplitting(/*load_threshold=*/10'000);
  // MVCC garbage collection up to the retention horizon.
  Micros horizon = clock_->NowMicros() - options_.version_retention;
  if (horizon > 0) spanner_.GarbageCollect(horizon);
}

}  // namespace firestore::service
