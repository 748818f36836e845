// Quickstart: create a database, write documents, query them, and watch a
// real-time query — the minimal tour of the public API.
//
//   $ ./example_quickstart

#include <iostream>

#include "client/client.h"
#include "common/logging.h"
#include "service/service.h"

using namespace firestore;  // example code; library code never does this

int main() {
  // A "region": one multi-tenant service instance backed by an in-process
  // Spanner database. Creating a logical database is metadata-only.
  RealClock clock;
  service::FirestoreService service(&clock);
  const std::string db = "projects/demo/databases/(default)";
  FS_CHECK_OK(service.CreateDatabase(db));

  // --- Writes (Server SDK style: privileged, no security rules) ---
  auto path = [](const char* p) {
    return model::ResourcePath::Parse(p).value();
  };
  FS_CHECK_OK(service
                  .Commit(db, {backend::Mutation::Set(
                                  path("/cities/sf"),
                                  {{"name", model::Value::String(
                                                "San Francisco")},
                                   {"population",
                                    model::Value::Integer(873965)},
                                   {"state", model::Value::String("CA")}})})
                  .status());
  FS_CHECK_OK(service
                  .Commit(db, {backend::Mutation::Set(
                                  path("/cities/la"),
                                  {{"name", model::Value::String(
                                                "Los Angeles")},
                                   {"population",
                                    model::Value::Integer(3990456)},
                                   {"state", model::Value::String("CA")}})})
                  .status());
  FS_CHECK_OK(service
                  .Commit(db, {backend::Mutation::Set(
                                  path("/cities/nyc"),
                                  {{"name", model::Value::String("New York")},
                                   {"population",
                                    model::Value::Integer(8336817)},
                                   {"state", model::Value::String("NY")}})})
                  .status());

  // --- A query served from the automatic single-field indexes ---
  query::Query big_cities(model::ResourcePath(), "cities");
  big_cities.Where(model::FieldPath::Single("population"),
                   query::Operator::kGreaterThan,
                   model::Value::Integer(1'000'000));
  auto result = service.RunQuery(db, big_cities);
  FS_CHECK(result.ok());
  std::cout << "cities with population > 1M (plan: "
            << result->plan_description << "):\n";
  for (const auto& doc : result->result.documents) {
    std::cout << "  " << doc.ToString() << "\n";
  }

  // --- A real-time query through the client SDK ---
  // nullopt: a privileged (Server SDK) demo client.
  client::FirestoreClient client(&service, db, std::nullopt);

  query::Query ca(model::ResourcePath(), "cities");
  ca.Where(model::FieldPath::Single("state"), query::Operator::kEqual,
           model::Value::String("CA"));
  auto listener = client.OnSnapshot(ca, [](const client::ViewSnapshot& view) {
    std::cout << "snapshot (" << view.documents.size() << " CA cities"
              << (view.has_pending_writes ? ", pending writes" : "")
              << "):\n";
    for (const auto& doc : view.documents) {
      std::cout << "  " << doc.name().CanonicalString() << "\n";
    }
  });
  FS_CHECK(listener.ok());

  // A local write is visible immediately (latency compensation), then
  // confirmed by the server notification path.
  FS_CHECK_OK(client.Set(path("/cities/sj"),
                         {{"name", model::Value::String("San Jose")},
                          {"population", model::Value::Integer(1013240)},
                          {"state", model::Value::String("CA")}}));
  client.Pump();
  service.Pump();
  service.Pump();

  std::cout << "done.\n";
  return 0;
}
