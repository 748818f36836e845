// Shared types of the Firestore Backend: mutations, write outcomes, and the
// two-phase-commit interface to the Real-time Cache (paper §IV-D2).

#ifndef FIRESTORE_BACKEND_TYPES_H_
#define FIRESTORE_BACKEND_TYPES_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "firestore/model/document.h"
#include "spanner/truetime.h"

namespace firestore::backend {

// A single document mutation within a commit.
struct Mutation {
  enum class Kind {
    kSet,     // create or replace the whole document
    kMerge,   // upsert: merge fields into the existing document
    kDelete,  // remove the document
  };

  enum class Precondition {
    kNone,
    kMustExist,
    kMustNotExist,
    // The document's update_time must equal expected_update_time (0 = the
    // document must not exist). This is how the client SDK's optimistic
    // transactions revalidate "all data read by the transaction ... for
    // freshness at the time of the commit" (paper §III-E).
    kUpdateTimeEquals,
  };

  Kind kind = Kind::kSet;
  model::ResourcePath name;
  model::Map fields;  // ignored for kDelete
  Precondition precondition = Precondition::kNone;
  int64_t expected_update_time = 0;  // kUpdateTimeEquals only

  static Mutation Set(model::ResourcePath name, model::Map fields) {
    return {Kind::kSet, std::move(name), std::move(fields),
            Precondition::kNone};
  }
  static Mutation Create(model::ResourcePath name, model::Map fields) {
    return {Kind::kSet, std::move(name), std::move(fields),
            Precondition::kMustNotExist};
  }
  static Mutation Merge(model::ResourcePath name, model::Map fields) {
    return {Kind::kMerge, std::move(name), std::move(fields),
            Precondition::kNone};
  }
  static Mutation Delete(model::ResourcePath name) {
    return {Kind::kDelete, std::move(name), {}, Precondition::kNone};
  }

  // The document this mutation leaves behind on top of `current` (nullopt =
  // deleted). Set and Merge carry create_time over. Preconditions and
  // Document::Validate are the caller's.
  std::optional<model::Document> ApplyTo(
      const std::optional<model::Document>& current) const {
    if (kind == Kind::kDelete) return std::nullopt;
    model::Map result = fields;
    if (kind == Kind::kMerge && current.has_value()) {
      // insert() keeps this mutation's value where both carry a field.
      result.insert(current->fields().begin(), current->fields().end());
    }
    model::Document doc(name, std::move(result));
    if (current.has_value()) doc.set_create_time(current->create_time());
    return doc;
  }
};

// What the Real-time Cache learns about one document in an Accept: "the name
// of each deleted document, a full copy of each inserted document, and a
// full copy of each modified document together with the exact changes".
struct DocumentChange {
  model::ResourcePath name;
  bool deleted = false;
  std::optional<model::Document> new_doc;  // set unless deleted
  std::optional<model::Document> old_doc;  // set unless insert
  // The originating commit's trace context (inactive unless the commit ran
  // under a Trace). Rides with the change through the Changelog buffer and
  // QueryMatcher fanout so the async notification leg lands in the same
  // trace as the write ack (common/trace.h).
  Trace::Context trace;
};

enum class WriteOutcome {
  kSuccess,
  kFailed,
  kUnknown,  // e.g. Spanner commit timed out
};

// Result of a Prepare: the minimum allowed commit timestamp plus a token
// that the matching Accept must carry.
struct PrepareHandle {
  spanner::Timestamp min_commit_ts = 0;
  uint64_t token = 0;
};

// The Real-time Cache's side of the write two-phase-commit. Implemented by
// the Changelog (rtcache); the Backend calls Prepare before the Spanner
// commit and Accept after.
class RealTimeParticipant {
 public:
  virtual ~RealTimeParticipant() = default;

  // Registers an in-flight write for the document names' ranges with maximum
  // commit timestamp M; returns the minimum allowed commit timestamp m.
  // UNAVAILABLE fails the write (paper: "this should be rare").
  virtual StatusOr<PrepareHandle> Prepare(
      const std::string& database_id,
      const std::vector<model::ResourcePath>& names,
      spanner::Timestamp max_commit_ts) = 0;

  // Completes the two-phase-commit with the Spanner outcome. On kSuccess,
  // `commit_ts` and `changes` are authoritative.
  virtual void Accept(uint64_t token, WriteOutcome outcome,
                      spanner::Timestamp commit_ts,
                      const std::vector<DocumentChange>& changes) = 0;
};

struct CommitResponse {
  spanner::Timestamp commit_ts = 0;
  // 2PC participants in Spanner (tablets written), for latency modeling.
  int spanner_participants = 0;
  // Index entries added + removed, for cost accounting.
  int64_t index_entries_written = 0;
  std::vector<DocumentChange> changes;
};

}  // namespace firestore::backend

#endif  // FIRESTORE_BACKEND_TYPES_H_
