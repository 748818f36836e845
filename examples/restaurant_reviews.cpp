// The paper's running example (§III, Web Codelab): a restaurant
// recommendation app. End users browse restaurants with filtering and
// sorting, and add reviews. Demonstrates:
//   - security rules (Figure 3 of the paper),
//   - third-party clients writing through rules,
//   - a composite index powering "city == X order by avgRating desc",
//   - a transaction keeping the restaurant's aggregate rating consistent,
//   - a write trigger (Cloud Functions stand-in),
//   - real-time queries updating a "display".
//
//   $ ./example_restaurant_reviews

#include <iostream>

#include "client/client.h"
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

// Figure 3 of the paper, extended like the Web Codelab: clients may update
// a restaurant's aggregate fields (numRatings/avgRating) when signed in.
constexpr char kRules[] = R"(
  match /restaurants/{restaurantId} {
    allow read;
    allow update: if request.auth != null;
    match /ratings/{ratingId} {
      allow read: if request.auth != null;
      allow create: if request.auth.uid == request.resource.data.userId;
    }
  }
)";

}  // namespace

int main() {
  RealClock clock;
  service::FirestoreService service(&clock);
  const std::string db = "projects/friendlyeats/databases/(default)";
  service::DatabaseOptions db_options;
  db_options.rules_source = kRules;
  FS_CHECK_OK(service.CreateDatabase(db, db_options));

  // The app's backend seeds restaurants (privileged Server SDK).
  struct Seed {
    const char* id;
    const char* name;
    const char* city;
    const char* type;
  };
  for (const Seed& s : {Seed{"zola", "Zola", "SF", "French"},
                        Seed{"tacos", "Taco Corner", "SF", "Mexican"},
                        Seed{"bbq", "Smoke Pit", "Austin", "BBQ"}}) {
    FS_CHECK_OK(
        service
            .Commit(db, {backend::Mutation::Set(
                            P(std::string("/restaurants/") + s.id),
                            {{"name", model::Value::String(s.name)},
                             {"city", model::Value::String(s.city)},
                             {"type", model::Value::String(s.type)},
                             {"avgRating", model::Value::Double(0)},
                             {"numRatings", model::Value::Integer(0)}})})
            .status());
  }

  // The developer defines the composite index the sorted-filtered view
  // needs (the error message tells them to during development).
  query::Query sf(model::ResourcePath(), "restaurants");
  sf.Where(F("city"), query::Operator::kEqual, model::Value::String("SF"))
      .OrderByField(F("avgRating"), /*descending=*/true);
  if (auto r = service.RunQuery(db, sf); !r.ok()) {
    std::cout << "as expected, query needs an index:\n  "
              << r.status().message() << "\n";
  }
  FS_CHECK_OK(service
                  .CreateCompositeIndex(
                      db, "restaurants",
                      {{F("city"), index::SegmentKind::kAscending},
                       {F("avgRating"), index::SegmentKind::kDescending}})
                  .status());

  // A write trigger posts a moderation event whenever a rating is written.
  FS_CHECK_OK(service.RegisterTrigger(db, "moderateReview",
                                      {"restaurants", "{rid}", "ratings",
                                       "{rat}"}));
  service.functions().Register(
      "moderateReview", [](const backend::TriggerEvent& e) {
        std::cout << "[cloud function] review written: "
                  << e.change.name.CanonicalString() << "\n";
        return Status::Ok();
      });

  // Alice opens the app on her phone.
  rules::AuthContext alice;
  alice.authenticated = true;
  alice.uid = "alice";
  client::FirestoreClient phone(&service, db, alice);

  // The app displays the SF restaurants sorted by rating, live.
  auto listener = phone.OnSnapshot(sf, [](const client::ViewSnapshot& view) {
    std::cout << "--- SF restaurants by rating ---\n";
    for (const auto& doc : view.documents) {
      std::cout << "  " << doc.GetField(F("name"))->string_value()
                << "  avg=" << doc.GetField(F("avgRating"))->AsDouble()
                << " (" << doc.GetField(F("numRatings"))->integer_value()
                << " ratings)\n";
    }
  });
  FS_CHECK(listener.ok());

  // Alice adds a review. The rating insert and the aggregate update commit
  // atomically — the paper's §IV-D2 example — via an optimistic client
  // transaction.
  Status reviewed = phone.RunTransaction(
      [&](client::ClientTransaction& txn) -> Status {
        ASSIGN_OR_RETURN(std::optional<model::Document> rest,
                         txn.Get(P("/restaurants/zola")));
        if (!rest.has_value()) return NotFoundError("no restaurant");
        int64_t n = rest->GetField(F("numRatings"))->integer_value();
        double avg = rest->GetField(F("avgRating"))->AsDouble();
        double new_avg = (avg * static_cast<double>(n) + 5.0) /
                         static_cast<double>(n + 1);
        txn.Set(P("/restaurants/zola/ratings/r1"),
                {{"rating", model::Value::Integer(5)},
                 {"text", model::Value::String("superb!")},
                 {"userId", model::Value::String(alice.uid)}});
        txn.Merge(P("/restaurants/zola"),
                  {{"numRatings", model::Value::Integer(n + 1)},
                   {"avgRating", model::Value::Double(new_avg)}});
        return Status::Ok();
      });
  FS_CHECK_OK(reviewed);
  service.Pump();
  service.Pump();

  // Mallory tries to forge a review under Alice's name — denied by rules.
  rules::AuthContext mallory;
  mallory.authenticated = true;
  mallory.uid = "mallory";
  auto forged = service.Commit(
      db,
      {backend::Mutation::Create(
          P("/restaurants/zola/ratings/forged"),
          {{"rating", model::Value::Integer(1)},
           {"userId", model::Value::String("alice")}})},
      &mallory);
  std::cout << "forged review: " << forged.status() << "\n";
  FS_CHECK(forged.status().code() == StatusCode::kPermissionDenied);

  // The aggregate is consistent with the ratings.
  auto zola = service.Get(db, P("/restaurants/zola"));
  std::cout << "zola: " << (*zola)->ToString() << "\n";
  std::cout << "done.\n";
  return 0;
}
