// index_query: a restaurant-style collection served from secondary indexes.
//
// 20k documents with 8 automatically indexed fields (16 index entries per
// new document). 90% of ops are queries:
//  - 1/4 single equality + limit:  city == C limit 20
//  - 1/4 two equalities, zig-zag:  city == C and category == K limit 20,
//    over the (C, K) pairs that fill the limit
//  - 1/2 range + limit:            seats >= S limit 20 (ordered by seats)
// and 10% are updates that rewrite three indexed fields (rating, reviews,
// seq). It loads firestore/query and firestore/index plus Spanner scans;
// the realtime cache stays idle.
//
// Correctness: the queries filter on fields no update touches, so the
// expected result names are fixed and are precomputed by a brute-force scan
// of the bench's shadow copy. Every query result must satisfy its
// predicate, order and limit, name exactly the expected documents, and
// carry per-document sequences no older than the last acknowledged update
// of each. After the run a sample of documents must hold their last
// acknowledged fields.

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "bench.h"
#include "common/logging.h"

namespace perfbench {
namespace {

using firestore::Rng;
using firestore::backend::Mutation;
using firestore::model::Document;
using firestore::model::FieldPath;
using firestore::model::ResourcePath;
using firestore::model::Value;
using firestore::query::Operator;
using firestore::query::Query;

constexpr int kDocs = 20'000;
constexpr int kCities = 40;
constexpr int kCategories = 25;
constexpr int kMinSeats = 10;
constexpr int kMaxSeats = 300;
constexpr int64_t kLimit = 20;
constexpr int kClients = 3;
// Low enough that each client is idle most of the time even when the host
// runs slow: at 1500 ops/s a client's queries queued behind each other
// after every Pump stall, and the medians swung 430-3000 us between runs.
constexpr double kRate = 600;
// Long enough that the requests queued behind Pump's GC stall stay a small
// share, as in kv_mixed.
constexpr int64_t kPumpPeriodUs = 1'000'000;
constexpr int64_t kWarmupOps = 9'000;  // per client, ~3 s
constexpr int kSetups = 4;
constexpr size_t kLoadBatch = 500;
constexpr int kFinalSample = 2000;
constexpr char kDb[] = "projects/bench/databases/places";
constexpr char kCollection[] = "restaurants";

enum Kind : uint32_t { kCityLimit, kZigZag, kRange, kUpdate };

// Fields no update touches.
struct Restaurant {
  int city = 0;
  int category = 0;
  int price = 0;
  bool open = false;
  int seats = 0;
};

// The fields an update rewrites, drawn from one op argument.
double Rating(int64_t arg) { return 1.0 + static_cast<double>(arg % 41) / 10; }
int64_t Reviews(int64_t arg) { return arg / 41; }

std::string CityName(int city) { return "city" + std::to_string(city); }
std::string CategoryName(int category) {
  return "cat" + std::to_string(category);
}

class IndexQuery : public Workload {
 public:
  explicit IndexQuery(uint64_t seed)
      : seed_(seed),
        acked_(kDocs),
        next_seq_(kDocs, 0),
        last_arg_(kDocs, 0),
        by_city_(kCities),
        by_city_category_(kCities * kCategories) {
    Rng rng(seed ^ 0x706c61636573ULL);
    char name[16];
    for (int key = 0; key < kDocs; ++key) {
      Restaurant r;
      r.city = static_cast<int>(rng.Uniform(0, kCities - 1));
      r.category = static_cast<int>(rng.Uniform(0, kCategories - 1));
      r.price = static_cast<int>(rng.Uniform(1, 4));
      r.open = rng.Bernoulli(0.7);
      r.seats = static_cast<int>(rng.Uniform(kMinSeats, kMaxSeats));
      shadow_.push_back(r);
      initial_arg_.push_back(rng.Uniform(0, 41 * 5000 - 1));
      std::snprintf(name, sizeof(name), "r%05d", key);
      paths_.push_back(ResourcePath({kCollection, name}));
    }
    // Brute-force expectations over the shadow copy, in name order (keys
    // are zero-padded, so key order is name order).
    for (uint32_t key = 0; key < kDocs; ++key) {
      const Restaurant& r = shadow_[key];
      by_city_[r.city].push_back(key);
      by_city_category_[r.city * kCategories + r.category].push_back(key);
      by_seats_.push_back(key);
    }
    // About 20 documents share each (city, category) pair. A pair with
    // fewer than kLimit makes the zig-zag join run both posting lists to
    // their ends, several times the cost of one that fills the page. With
    // zig-zags drawn from all pairs, the read median swung 340-600 us
    // between runs.
    for (uint32_t pair = 0; pair < by_city_category_.size(); ++pair) {
      if (by_city_category_[pair].size() >= kLimit) full_pairs_.push_back(pair);
    }
    std::stable_sort(by_seats_.begin(), by_seats_.end(),
                     [this](uint32_t a, uint32_t b) {
                       return shadow_[a].seats < shadow_[b].seats;
                     });
    // Every distinct query, built once.
    for (int c = 0; c < kCities; ++c) {
      Query city = Collection();
      city.Where(Field("city"), Operator::kEqual, Value::String(CityName(c)))
          .Limit(kLimit);
      city_queries_.push_back(std::move(city));
      for (int k = 0; k < kCategories; ++k) {
        Query q = Collection();
        q.Where(Field("city"), Operator::kEqual, Value::String(CityName(c)))
            .Where(Field("category"), Operator::kEqual,
                   Value::String(CategoryName(k)))
            .Limit(kLimit);
        zigzag_queries_.push_back(std::move(q));
      }
    }
    for (int s = kMinSeats; s <= kMaxSeats; ++s) {
      Query q = Collection();
      q.Where(Field("seats"), Operator::kGreaterThanOrEqual, Value::Integer(s))
          .Limit(kLimit);
      range_queries_.push_back(std::move(q));
    }
  }

  WorkloadShape shape() const override {
    return {kClients, kRate, kPumpPeriodUs, kWarmupOps, kSetups};
  }

  Op NextOp(int client, Rng& rng) override {
    Op op;
    const double pick = rng.NextDouble();
    if (pick < 0.1) {
      // Keys with key % kClients == client belong to this client's writes.
      op.kind = kUpdate;
      op.key = static_cast<uint32_t>(
          client + kClients * rng.Uniform(0, (kDocs - 1 - client) / kClients));
      op.arg = rng.Uniform(0, 41 * 5000 - 1);
    } else if (pick < 0.325) {
      op.kind = kCityLimit;
      op.key = static_cast<uint32_t>(rng.Uniform(0, kCities - 1));
    } else if (pick < 0.55) {
      op.kind = kZigZag;
      op.key = full_pairs_[rng.Uniform(
          0, static_cast<int64_t>(full_pairs_.size()) - 1)];
    } else {
      op.kind = kRange;
      op.key = static_cast<uint32_t>(rng.Uniform(kMinSeats, kMaxSeats));
    }
    return op;
  }

  void Setup(const BenchClock* clock, TraceLog*) override {
    service_.reset();
    service_ = std::make_unique<firestore::service::FirestoreService>(clock);
    FS_CHECK_OK(service_->CreateDatabase(kDb));
    std::vector<Mutation> batch;
    for (int key = 0; key < kDocs; ++key) {
      batch.push_back(Mutation::Set(paths_[key], Fields(key)));
      if (batch.size() == kLoadBatch || key == kDocs - 1) {
        FS_CHECK(service_->Commit(kDb, batch).ok());
        batch.clear();
      }
    }
    for (auto& acked : acked_) acked.store(0, std::memory_order_relaxed);
    std::fill(next_seq_.begin(), next_seq_.end(), 0);
    last_arg_ = initial_arg_;
  }

  firestore::service::FirestoreService& service() override {
    return *service_;
  }

  Outcome Execute(int, const Op& op) override {
    Outcome out;
    if (op.kind == kUpdate) {
      const int64_t seq = ++next_seq_[op.key];
      auto commit = service_->Commit(
          kDb, {Mutation::Merge(paths_[op.key],
                                {{"rating", Value::Double(Rating(op.arg))},
                                 {"reviews", Value::Integer(Reviews(op.arg))},
                                 {"seq", Value::Integer(seq)}})});
      if (!commit.ok()) {
        out.ok = false;
      } else {
        last_arg_[op.key] = op.arg;
        acked_[op.key].store(seq, std::memory_order_release);
      }
      return out;
    }
    out.cls = Outcome::Class::kRead;
    const Query* q = nullptr;
    const uint32_t* expected = nullptr;
    size_t expected_size = 0;
    switch (op.kind) {
      case kCityLimit:
        q = &city_queries_[op.key];
        expected = by_city_[op.key].data();
        expected_size = by_city_[op.key].size();
        break;
      case kZigZag:
        q = &zigzag_queries_[op.key];
        expected = by_city_category_[op.key].data();
        expected_size = by_city_category_[op.key].size();
        break;
      default: {
        q = &range_queries_[op.key - kMinSeats];
        auto first = std::lower_bound(
            by_seats_.begin(), by_seats_.end(), static_cast<int>(op.key),
            [this](uint32_t key, int seats) {
              return shadow_[key].seats < seats;
            });
        expected = by_seats_.data() + (first - by_seats_.begin());
        expected_size = static_cast<size_t>(by_seats_.end() - first);
        break;
      }
    }
    expected_size = std::min<size_t>(expected_size, kLimit);
    int64_t floors[kLimit];
    for (size_t i = 0; i < expected_size; ++i) {
      floors[i] = acked_[expected[i]].load(std::memory_order_acquire);
    }
    auto result = service_->RunQuery(kDb, *q);
    if (!result.ok()) {
      out.ok = false;
      return out;
    }
    const std::vector<Document>& docs = result->result.documents;
    out.results = static_cast<int64_t>(docs.size());
    if (docs.size() != expected_size) {
      out.wrong = 1;
      return out;
    }
    for (size_t i = 0; i < docs.size(); ++i) {
      if (!(docs[i].name() == paths_[expected[i]]) || !q->Matches(docs[i]) ||
          (i > 0 && q->Compare(docs[i - 1], docs[i]) >= 0) ||
          Seq(docs[i]) < floors[i]) {
        out.wrong = 1;
        return out;
      }
    }
    return out;
  }

  CheckResult Finish() override {
    CheckResult check;
    Rng rng(seed_ ^ 0x66696e616cULL);
    for (int i = 0; i < kFinalSample; ++i) {
      const int key = static_cast<int>(rng.Uniform(0, kDocs - 1));
      auto doc = service_->Get(kDb, paths_[key]);
      ++check.attempted;
      if (!doc.ok() || !doc->has_value()) {
        ++check.failed;
        continue;
      }
      firestore::model::Map want = Fields(key);
      want["seq"] = Value::Integer(acked_[key].load(std::memory_order_relaxed));
      want["rating"] = Value::Double(Rating(last_arg_[key]));
      want["reviews"] = Value::Integer(Reviews(last_arg_[key]));
      if (!(Value::FromMap((*doc)->fields()) == Value::FromMap(want))) {
        ++check.failed;
      }
    }
    return check;
  }

 private:
  static Query Collection() { return Query(ResourcePath(), kCollection); }
  static FieldPath Field(const char* name) { return FieldPath::Single(name); }

  static int64_t Seq(const Document& doc) {
    auto it = doc.fields().find("seq");
    return it == doc.fields().end() ? -1 : it->second.integer_value();
  }

  // A document's fields as loaded.
  firestore::model::Map Fields(int key) const {
    const Restaurant& r = shadow_[key];
    return {{"city", Value::String(CityName(r.city))},
            {"category", Value::String(CategoryName(r.category))},
            {"price", Value::Integer(r.price)},
            {"rating", Value::Double(Rating(initial_arg_[key]))},
            {"reviews", Value::Integer(Reviews(initial_arg_[key]))},
            {"open", Value::Boolean(r.open)},
            {"seats", Value::Integer(r.seats)},
            {"seq", Value::Integer(0)}};
  }

  const uint64_t seed_;
  std::vector<Restaurant> shadow_;
  std::vector<int64_t> initial_arg_;
  std::vector<ResourcePath> paths_;
  std::unique_ptr<firestore::service::FirestoreService> service_;
  // Last acknowledged sequence per key, read by every client.
  std::vector<std::atomic<int64_t>> acked_;
  // Per key, touched only by the key's writing client.
  std::vector<int64_t> next_seq_;
  std::vector<int64_t> last_arg_;
  // Expected results: keys in name order (by_seats_: seats, then name).
  std::vector<std::vector<uint32_t>> by_city_;
  std::vector<std::vector<uint32_t>> by_city_category_;
  std::vector<uint32_t> full_pairs_;  // pairs with at least kLimit documents
  std::vector<uint32_t> by_seats_;
  std::vector<Query> city_queries_;
  std::vector<Query> zigzag_queries_;
  std::vector<Query> range_queries_;
};

}  // namespace

std::unique_ptr<Workload> MakeIndexQuery(uint64_t seed) {
  return std::make_unique<IndexQuery>(seed);
}

}  // namespace perfbench
