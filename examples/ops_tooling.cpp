// Operator's tour: the production machinery of paper §VI and §VIII on top
// of the same public API — data-validation jobs, the per-database in-flight
// limit, isolated-pool routing, conforming-traffic tracking, COUNT
// aggregations, and resumable (paginated) queries.
//
//   $ ./example_ops_tooling

#include <iostream>

#include "backend/admission.h"
#include "backend/validation.h"
#include "common/logging.h"
#include "service/service.h"

using namespace firestore;

namespace {
model::ResourcePath P(const std::string& p) {
  return model::ResourcePath::Parse(p).value();
}
model::FieldPath F(const std::string& f) {
  return model::FieldPath::Parse(f).value();
}
}  // namespace

int main() {
  RealClock clock;
  service::FirestoreService service(&clock);
  const std::string db = "projects/ops/databases/(default)";
  FS_CHECK_OK(service.CreateDatabase(db));

  // Seed a working dataset.
  for (int i = 0; i < 500; ++i) {
    FS_CHECK_OK(service
                    .Commit(db, {backend::Mutation::Set(
                                    P("/orders/o" + std::to_string(i)),
                                    {{"status", model::Value::String(
                                                    i % 4 == 0 ? "open"
                                                               : "done")},
                                     {"amount",
                                      model::Value::Integer(i * 3)}})})
                    .status());
  }

  // --- COUNT queries (§VIII): aggregate without fetching documents ---
  query::Query open_orders(model::ResourcePath(), "orders");
  open_orders.Where(F("status"), query::Operator::kEqual,
                    model::Value::String("open"));
  auto count = service.RunCountQuery(db, open_orders);
  FS_CHECK(count.ok());
  std::cout << "open orders: " << count->count << " (counted from "
            << count->stats.index_rows_scanned
            << " index rows, 0 documents fetched)\n";

  // --- Resumable queries (§IV-C): page through a big result set ---
  query::Query by_amount(model::ResourcePath(), "orders");
  by_amount.OrderByField(F("amount"), /*descending=*/true).Limit(200);
  int pages = 0, docs = 0;
  query::Query page = by_amount;
  while (true) {
    auto r = service.RunQuery(db, page);
    FS_CHECK(r.ok());
    if (r->result.documents.empty()) break;
    ++pages;
    docs += static_cast<int>(r->result.documents.size());
    page = by_amount;
    page.StartAfterDoc(r->result.documents.back());
  }
  std::cout << "paged " << docs << " orders in " << pages << " pages\n";

  // --- Data validation job (§VI) ---
  backend::DataValidationService validator(&service.spanner());
  auto report =
      validator.ValidateDatabase(db, *service.catalog(db)->Snapshot());
  FS_CHECK(report.ok());
  std::cout << "validation: " << report->Summary() << "\n";

  // Simulate a corruption, detect it, repair by rewriting the document.
  {
    auto txn = service.spanner().BeginTransaction();
    txn->Put(index::kEntitiesTable, index::EntityKey(db, P("/orders/o1")),
             "bit-rot");
    FS_CHECK(txn->Commit().ok());
  }
  report = validator.ValidateDatabase(db, *service.catalog(db)->Snapshot());
  std::cout << "after corruption: " << report->Summary() << "\n";
  // Remediate: the repair job drops the unparseable row and its stale index
  // entries; the application then rewrites the document through the API.
  report = validator.RepairDatabase(db, *service.catalog(db));
  FS_CHECK(report.ok() && report->clean());
  FS_CHECK_OK(service
                  .Commit(db, {backend::Mutation::Set(
                                  P("/orders/o1"),
                                  {{"status", model::Value::String("done")},
                                   {"amount", model::Value::Integer(3)}})})
                  .status());
  report = validator.ValidateDatabase(db, *service.catalog(db)->Snapshot());
  std::cout << "after repair + rewrite: " << report->Summary() << "\n";

  // --- Emergency isolation tools (§VI) ---
  backend::AdmissionController admission;
  admission.SetInflightLimit(db, 2);  // the "low-tech manual tool"
  auto t1 = admission.Admit(db);
  auto t2 = admission.Admit(db);
  auto t3 = admission.Admit(db);
  std::cout << "in-flight limit: third concurrent RPC -> " << t3.status()
            << "\n";
  admission.RouteToIsolatedPool(db, "quarantine-pool");
  std::cout << "routing: requests for this database now go to pool '"
            << admission.PoolFor(db) << "'\n";

  // --- Conforming-traffic tracking (§IV-C) ---
  backend::TrafficRampTracker::Options ramp_options;
  ramp_options.base_qps = 500;
  backend::TrafficRampTracker ramp(&clock, ramp_options);
  bool conforming = true;
  for (int i = 0; i < 1000; ++i) conforming = ramp.Record(db) && conforming;
  std::cout << "a 1000-request instantaneous burst "
            << (conforming ? "conforms" : "violates")
            << " the 500-QPS-base ramp (allowed now: "
            << ramp.AllowedQps(db) << " QPS)\n";
  std::cout << "done.\n";
  return 0;
}
