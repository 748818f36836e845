// realtime_fanout: the paper's Figure 9 pipeline on a real clock.
//
// A fixed-rate writer updates a small `games` collection while L listeners,
// each on its own connection, hold `shard == s` for one of 100 shards. A
// write matches ~1% of the listeners, so the matcher examines far more
// (document, query) pairs than it matches. It loads the rtcache Changelog
// and QueryMatcher and frontend snapshot assembly; Spanner stays lightly
// loaded. The notification latency runs from a write's due time to each
// matching listener's callback.
//
// Correctness: every write carries the document's sequence number. A
// listener must never see a document's sequence go back; after the run
// drains, every listener's last snapshot must equal RunQuery of its query,
// and every acknowledged write must have been delivered to each matching
// listener or coalesced into a later snapshot.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "common/logging.h"

namespace perfbench {
namespace {

using firestore::Rng;
using firestore::backend::Mutation;
using firestore::frontend::ChangeKind;
using firestore::frontend::QuerySnapshot;
using firestore::model::Document;
using firestore::model::FieldPath;
using firestore::model::ResourcePath;
using firestore::model::Value;
using firestore::query::Operator;
using firestore::query::Query;

constexpr int kGames = 1000;
constexpr int kShards = 100;
constexpr int kPerShard = kGames / kShards;
constexpr int kListeners = 500;
constexpr int kTraceListenEvery = 8;
// Not a whole number of writes a pump: the writes' phase against the pumps
// then sweeps the whole period during a run. At 500/s and a 20 ms pump (ten
// writes a pump) the phase was fixed by when the pump thread started, and
// the notify median moved by ~1.5 ms between runs with it.
constexpr double kRate = 487;
// At 20 ms Pump was busy half the time. Its GC, which walks every version
// written so far under the store lock, grew through the run, and the
// writer's commit median moved with it: spread 0.19-0.31 over ten runs.
constexpr int64_t kPumpPeriodUs = 50'000;
constexpr int kSetups = 15;
constexpr int64_t kDrainTimeoutNs = 30'000'000'000;
constexpr char kDb[] = "projects/bench/databases/scores";
constexpr char kCollection[] = "games";

// Game documents are named g0000..g0999; game g is in shard g % kShards.
int GameOf(const Document& doc) {
  const std::string& id = doc.name().last_segment();
  int game = -1;
  if (id.size() < 2 ||
      std::from_chars(id.data() + 1, id.data() + id.size(), game).ec !=
          std::errc()) {
    return -1;
  }
  return game;
}

int64_t SeqOf(const Document& doc) {
  auto it = doc.fields().find("seq");
  return it == doc.fields().end() ? -1 : it->second.integer_value();
}

class RealtimeFanout : public Workload {
 public:
  explicit RealtimeFanout(uint64_t) : open_due_(kGames) {
    char name[16];
    for (int game = 0; game < kGames; ++game) {
      std::snprintf(name, sizeof(name), "g%04d", game);
      paths_.push_back(ResourcePath({kCollection, name}));
    }
  }

  WorkloadShape shape() const override {
    return {1, kRate, kPumpPeriodUs, 0, kSetups};
  }

  Op NextOp(int, Rng& rng) override {
    Op op;
    op.key = static_cast<uint32_t>(rng.Uniform(0, kGames - 1));
    op.arg = rng.Uniform(0, 1'000'000);  // the new score
    return op;
  }

  // The single writer runs the open loop in order, so a game's n-th write
  // in it carries sequence n.
  void Plan(const Schedule& schedule) override {
    for (auto& dues : open_due_) dues.clear();
    const std::vector<Op>& ops = schedule.open[0];
    for (size_t k = 0; k < ops.size(); ++k) {
      open_due_[ops[k].key].push_back(schedule.DueOffsetNs(0, k));
    }
  }

  void Setup(const BenchClock* clock, TraceLog* listen_traces) override {
    service_.reset();
    service_ = std::make_unique<firestore::service::FirestoreService>(clock);
    FS_CHECK_OK(service_->CreateDatabase(kDb));
    std::vector<Mutation> batch;
    for (int game = 0; game < kGames; ++game) {
      batch.push_back(Mutation::Set(paths_[game],
                                    {{"shard", Value::Integer(game % kShards)},
                                     {"seq", Value::Integer(0)},
                                     {"score", Value::Integer(0)}}));
    }
    FS_CHECK(service_->Commit(kDb, batch).ok());
    next_seq_.assign(kGames, 0);
    acked_.assign(kGames, 0);
    notifications_.clear();
    open_start_.store(0, std::memory_order_relaxed);
    listeners_.assign(kListeners, Listener{});
    queries_.clear();
    for (int l = 0; l < kListeners; ++l) {
      Query q(ResourcePath(), kCollection);
      q.Where(FieldPath::Single("shard"), Operator::kEqual,
              Value::Integer(l % kShards));
      queries_.push_back(q);
      listeners_[l].delivered.assign(kPerShard, 0);
      auto connection = service_->frontend().OpenPrivilegedConnection(kDb);
      auto callback = [this, l](const QuerySnapshot& snapshot) {
        OnSnapshot(l, snapshot);
      };
      std::unique_ptr<firestore::Trace> trace;
      if (listen_traces != nullptr && l % kTraceListenEvery == 0) {
        trace = std::make_unique<firestore::Trace>(clock, "bench.listen");
      }
      {
        std::unique_ptr<firestore::TraceScope> scope;
        if (trace != nullptr) {
          scope = std::make_unique<firestore::TraceScope>(*trace);
        }
        FS_CHECK(service_->frontend().Listen(connection, q, callback).ok());
      }
      if (trace != nullptr) {
        trace->Finish();
        listen_traces->push_back(std::move(trace));
      }
    }
  }

  firestore::service::FirestoreService& service() override {
    return *service_;
  }

  void BeginOpenLoop(int64_t start_ns) override {
    open_start_.store(start_ns, std::memory_order_release);
  }

  Outcome Execute(int, const Op& op) override {
    Outcome out;
    const int64_t seq = ++next_seq_[op.key];
    auto commit = service_->Commit(
        kDb, {Mutation::Merge(paths_[op.key],
                              {{"seq", Value::Integer(seq)},
                               {"score", Value::Integer(op.arg)}})});
    if (!commit.ok()) {
      out.ok = false;
    } else {
      acked_[op.key] = seq;
    }
    return out;
  }

  std::vector<int64_t> TakeNotifications() override {
    return std::move(notifications_);
  }

  CheckResult Finish() override {
    // Drain: pump until every listener has seen every acknowledged write.
    const int64_t deadline = NowNanos() + kDrainTimeoutNs;
    while (Undelivered() > 0 && NowNanos() < deadline) {
      service_->Pump();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    CheckResult check;
    check.attempted = kListeners;
    check.failed = Undelivered();
    for (int l = 0; l < kListeners; ++l) {
      const Listener& listener = listeners_[l];
      check.failed += listener.wrong;
      auto result = service_->RunQuery(kDb, queries_[l]);
      if (!result.ok()) {
        ++check.failed;
        continue;
      }
      std::vector<std::pair<int, int64_t>> want;
      for (const Document& doc : result->result.documents) {
        want.emplace_back(GameOf(doc), SeqOf(doc));
      }
      if (want != listener.documents) ++check.failed;
    }
    return check;
  }

 private:
  struct Listener {
    // Newest sequence delivered, per game of the listener's shard.
    std::vector<int64_t> delivered;
    // The last snapshot's full result: (game, sequence), in query order.
    std::vector<std::pair<int, int64_t>> documents;
    int64_t wrong = 0;  // regressions, foreign documents, errors
  };

  // Runs on the thread that calls Listen or Pump: setup, then the pump
  // thread, then Finish; never two at once.
  void OnSnapshot(int l, const QuerySnapshot& snapshot) {
    const int64_t now = NowNanos();
    Listener& listener = listeners_[l];
    if (!snapshot.error.ok()) {
      ++listener.wrong;
      return;
    }
    const int64_t open_start = open_start_.load(std::memory_order_acquire);
    for (const auto& change : snapshot.changes) {
      const int game = GameOf(change.doc);
      if (change.kind == ChangeKind::kRemoved || game < 0 ||
          game % kShards != l % kShards) {
        ++listener.wrong;
        continue;
      }
      const int64_t seq = SeqOf(change.doc);
      int64_t& seen = listener.delivered[game / kShards];
      if (seq < seen) {
        ++listener.wrong;
        continue;
      }
      // Every write this snapshot covers, coalesced ones included; only
      // open-loop writes have a due time.
      const std::vector<int64_t>& dues = open_due_[game];
      for (int64_t s = seen + 1; s <= seq; ++s) {
        if (open_start > 0 && s <= static_cast<int64_t>(dues.size())) {
          notifications_.push_back(now - (open_start + dues[s - 1]));
        }
      }
      seen = seq;
    }
    listener.documents.clear();
    for (const Document& doc : snapshot.documents) {
      listener.documents.emplace_back(GameOf(doc), SeqOf(doc));
    }
  }

  // Acknowledged writes not yet delivered to a matching listener.
  int64_t Undelivered() const {
    int64_t missing = 0;
    for (int l = 0; l < kListeners; ++l) {
      for (int i = 0; i < kPerShard; ++i) {
        const int game = l % kShards + i * kShards;
        missing += std::max<int64_t>(
            0, acked_[game] - listeners_[l].delivered[i]);
      }
    }
    return missing;
  }

  std::vector<ResourcePath> paths_;
  // Per game: due offsets of its open-loop writes, by sequence - 1.
  std::vector<std::vector<int64_t>> open_due_;
  std::unique_ptr<firestore::service::FirestoreService> service_;
  std::vector<Query> queries_;
  // Writer-owned; read by Finish after the writer stopped.
  std::vector<int64_t> next_seq_;
  std::vector<int64_t> acked_;
  // Callback-owned (see OnSnapshot).
  std::vector<Listener> listeners_;
  std::vector<int64_t> notifications_;
  std::atomic<int64_t> open_start_{0};
};

}  // namespace

std::unique_ptr<Workload> MakeRealtimeFanout(uint64_t seed) {
  return std::make_unique<RealtimeFanout>(seed);
}

}  // namespace perfbench
