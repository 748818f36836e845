// kv_mixed: the paper's YCSB-A shape (§V, Figs. 7-8) on a real clock.
//
// 100k documents of nine 100-byte string fields (~90 MB of user data, well
// past the last-level cache). The payload fields are exempt from indexing,
// so each document carries one indexed integer field: two index rows. Ops
// are 50% strong Get and 50% single-field Merge, uniform over all keys.
// It loads the commit path, the codec, the Spanner MVCC store and the Pump
// maintenance stalls on the store lock; the query planner, the matcher and
// frontend delivery stay idle.
//
// Correctness: every merged value starts with the key's sequence number,
// and each key is written by one client only, so sequence order is commit
// order. A Get must return a sequence no older than the last write
// acknowledged before it was issued; after the run a sample of keys must
// hold exactly the last acknowledged sequence.

#include <atomic>
#include <charconv>
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

constexpr int kDocs = 100'000;
constexpr int kFields = 9;
constexpr size_t kFieldBytes = 100;
constexpr size_t kSeqDigits = 12;
constexpr int kClients = 3;
constexpr double kRate = 2000;
// Pump's GC walks the whole store under the store lock, ~45 ms a pump. At a
// 250 ms period a fifth of the requests queued behind it, so the medians sat
// on the steep part of the latency curve and moved with the stall's length.
// At 1 s 3-14% do.
constexpr int64_t kPumpPeriodUs = 1'000'000;
constexpr int64_t kWarmupOps = 30'000;  // per client, ~3 s
constexpr int kSetups = 4;
constexpr size_t kLoadBatch = 500;
constexpr int kFinalSample = 2000;
constexpr char kDb[] = "projects/bench/databases/kv";
constexpr char kCollection[] = "usertable";

enum Kind : uint32_t { kGet, kMerge };

class KvMixed : public Workload {
 public:
  explicit KvMixed(uint64_t seed)
      : seed_(seed), acked_(kDocs), next_seq_(kDocs, 0) {
    Rng rng(seed ^ 0x6b765f6d69786564ULL);
    filler_ = rng.AlphaNumString(4096);
    for (int f = 0; f < kFields; ++f) {
      field_names_.push_back("field" + std::to_string(f));
    }
    paths_.reserve(kDocs);
    char name[16];
    for (int key = 0; key < kDocs; ++key) {
      std::snprintf(name, sizeof(name), "user%07d", key);
      paths_.push_back(ResourcePath({kCollection, name}));
    }
  }

  WorkloadShape shape() const override {
    return {kClients, kRate, kPumpPeriodUs, kWarmupOps, kSetups};
  }

  Op NextOp(int client, Rng& rng) override {
    Op op;
    op.arg = rng.Uniform(0, kFields - 1);  // the merged field
    if (rng.Bernoulli(0.5)) {
      op.kind = kGet;
      op.key = static_cast<uint32_t>(rng.Uniform(0, kDocs - 1));
    } else {
      // Keys with key % kClients == client belong to this client's writes.
      op.kind = kMerge;
      op.key = static_cast<uint32_t>(
          client + kClients * rng.Uniform(0, (kDocs - 1 - client) / kClients));
    }
    return op;
  }

  void Setup(const BenchClock* clock, TraceLog*) override {
    service_.reset();
    service_ = std::make_unique<firestore::service::FirestoreService>(clock);
    FS_CHECK_OK(service_->CreateDatabase(kDb));
    for (const std::string& field : field_names_) {
      FS_CHECK_OK(service_->AddFieldExemption(kDb, kCollection,
                                              FieldPath::Single(field)));
    }
    std::vector<Mutation> batch;
    for (int key = 0; key < kDocs; ++key) {
      firestore::model::Map fields;
      fields["key"] = Value::Integer(key);
      for (int f = 0; f < kFields; ++f) {
        fields[field_names_[f]] = Value::String(FieldValue(0, key, f));
      }
      batch.push_back(Mutation::Set(paths_[key], std::move(fields)));
      if (batch.size() == kLoadBatch || key == kDocs - 1) {
        FS_CHECK(service_->Commit(kDb, batch).ok());
        batch.clear();
      }
    }
    for (auto& acked : acked_) acked.store(0, std::memory_order_relaxed);
    std::fill(next_seq_.begin(), next_seq_.end(), 0);
  }

  firestore::service::FirestoreService& service() override {
    return *service_;
  }

  Outcome Execute(int, const Op& op) override {
    Outcome out;
    if (op.kind == kGet) {
      out.cls = Outcome::Class::kRead;
      const int64_t floor = acked_[op.key].load(std::memory_order_acquire);
      auto doc = service_->Get(kDb, paths_[op.key]);
      if (!doc.ok()) {
        out.ok = false;
      } else if (!doc->has_value() || MaxSeq(**doc) < floor) {
        out.wrong = 1;
      }
      return out;
    }
    const int64_t seq = ++next_seq_[op.key];
    auto commit = service_->Commit(
        kDb, {Mutation::Merge(paths_[op.key],
                              {{field_names_[op.arg],
                                Value::String(FieldValue(seq, op.key,
                                                         op.arg))}})});
    if (!commit.ok()) {
      out.ok = false;
    } else {
      acked_[op.key].store(seq, std::memory_order_release);
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
      if (!doc.ok() || !doc->has_value() ||
          MaxSeq(**doc) != acked_[key].load(std::memory_order_relaxed)) {
        ++check.failed;
      }
    }
    return check;
  }

 private:
  // kFieldBytes of payload: the zero-padded sequence, then filler.
  std::string FieldValue(int64_t seq, uint32_t key, int64_t field) const {
    char prefix[24];
    std::snprintf(prefix, sizeof(prefix), "%012lld",
                  static_cast<long long>(seq));
    std::string value(prefix, kSeqDigits);
    const size_t span = filler_.size() - kFieldBytes;
    const size_t offset =
        (static_cast<size_t>(key) * 31 + field * 7 + seq * 13) % span;
    value.append(filler_, offset, kFieldBytes - kSeqDigits);
    return value;
  }

  // The document's sequence: the newest of its fields' prefixes.
  int64_t MaxSeq(const Document& doc) const {
    int64_t newest = -1;
    for (const std::string& field : field_names_) {
      auto it = doc.fields().find(field);
      if (it == doc.fields().end()) return -1;
      const std::string& value = it->second.string_value();
      int64_t seq = -1;
      if (value.size() < kSeqDigits ||
          std::from_chars(value.data(), value.data() + kSeqDigits, seq).ec !=
              std::errc()) {
        return -1;
      }
      newest = std::max(newest, seq);
    }
    return newest;
  }

  const uint64_t seed_;
  std::string filler_;
  std::vector<std::string> field_names_;
  std::vector<ResourcePath> paths_;
  std::unique_ptr<firestore::service::FirestoreService> service_;
  // Last acknowledged sequence per key, read by every client.
  std::vector<std::atomic<int64_t>> acked_;
  // Next sequence per key, touched only by the key's writing client.
  std::vector<int64_t> next_seq_;
};

}  // namespace

std::unique_ptr<Workload> MakeKvMixed(uint64_t seed) {
  return std::make_unique<KvMixed>(seed);
}

}  // namespace perfbench
