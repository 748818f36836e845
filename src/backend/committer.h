// The Firestore Backend write path (paper §IV-D2): reads documents with
// exclusive locks, evaluates security rules, computes index-entry deltas,
// two-phase-commits with the Real-time Cache around the Spanner commit, and
// persists trigger messages.

#ifndef FIRESTORE_BACKEND_COMMITTER_H_
#define FIRESTORE_BACKEND_COMMITTER_H_

#include <functional>
#include <string>
#include <vector>

#include "backend/billing.h"
#include "backend/types.h"
#include "common/clock.h"
#include "common/status.h"
#include "firestore/index/catalog.h"
#include "firestore/rules/rules.h"
#include "spanner/database.h"

namespace firestore::backend {

// Trigger registration: pattern segments with {var} wildcards, e.g.
// ["restaurants", "{rid}", "ratings", "{rat}"]. Matching changes enqueue a
// TriggerEvent on the transactional message queue under kTriggerTopic.
struct TriggerDefinition {
  std::string function_name;
  std::vector<std::string> pattern;

  bool MatchesPath(const model::ResourcePath& path) const;
};

inline constexpr char kTriggerTopic[] = "cloud-functions";

// Payload of a trigger message ("the delta from that change is conveniently
// available in the handler", paper §III-F).
struct TriggerEvent {
  std::string database_id;
  std::string function_name;
  DocumentChange change;
  spanner::Timestamp commit_ts = 0;

  std::string Serialize() const;
  static StatusOr<TriggerEvent> Parse(std::string_view data);
};

class Committer {
 public:
  Committer(spanner::Database* spanner, const Clock* clock)
      : spanner_(spanner), clock_(clock) {}

  // Optional collaborators.
  void set_realtime(RealTimeParticipant* rt) { realtime_ = rt; }
  void set_billing(BillingLedger* billing) { billing_ = billing; }

  // Commits `mutations` atomically for `database_id`.
  //
  // `rules`+`auth` non-null marks a third-party request: write rules run for
  // every mutation, with get()/exists() lookups served transactionally.
  // Server SDK (privileged) requests pass nullptr and bypass rules
  // (paper §III-D vs §III-E).
  //
  // `triggers` (may be empty) is the database's trigger registry.
  StatusOr<CommitResponse> Commit(
      const std::string& database_id, index::IndexCatalog& catalog,
      const std::vector<Mutation>& mutations,
      const std::vector<TriggerDefinition>& triggers = {},
      const rules::RuleSet* rules = nullptr,
      const rules::AuthContext* auth = nullptr);

  // Runs `body` inside a Firestore transaction: the callback reads through
  // the transaction (acquiring locks) and returns the mutations to apply;
  // the whole thing commits atomically. Retries pre-apply failures —
  // ABORTED (wound-wait), UNAVAILABLE, lock-wait timeouts — up to
  // `max_attempts`; each retry starts at once, without a backoff sleep.
  // An unknown-outcome commit is NOT retried: the write may have landed.
  using TransactionBody = std::function<StatusOr<std::vector<Mutation>>(
      spanner::ReadWriteTransaction& txn)>;
  StatusOr<CommitResponse> RunTransaction(
      const std::string& database_id, index::IndexCatalog& catalog,
      const TransactionBody& body,
      const std::vector<TriggerDefinition>& triggers = {},
      int max_attempts = 5);

 private:
  StatusOr<CommitResponse> CommitInternal(
      const std::string& database_id, index::IndexCatalog& catalog,
      spanner::ReadWriteTransaction& txn,
      const std::vector<Mutation>& mutations,
      const std::vector<TriggerDefinition>& triggers,
      const rules::RuleSet* rules, const rules::AuthContext* auth);

  spanner::Database* spanner_;
  const Clock* clock_;
  RealTimeParticipant* realtime_ = nullptr;
  BillingLedger* billing_ = nullptr;
};

}  // namespace firestore::backend

#endif  // FIRESTORE_BACKEND_COMMITTER_H_
