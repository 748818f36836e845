#include "backend/committer.h"

#include <algorithm>
#include <map>

#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/retry.h"
#include "common/trace.h"
#include "firestore/codec/document_codec.h"
#include "firestore/index/extractor.h"
#include "firestore/index/layout.h"

namespace firestore::backend {

using model::Document;
using model::ResourcePath;
using spanner::Timestamp;

bool TriggerDefinition::MatchesPath(const ResourcePath& path) const {
  const std::vector<std::string>& segments = path.segments();
  if (segments.size() != pattern.size()) return false;
  for (size_t i = 0; i < segments.size(); ++i) {
    if (pattern[i].front() == '{') continue;  // wildcard
    if (pattern[i] != segments[i]) return false;
  }
  return true;
}

std::string TriggerEvent::Serialize() const {
  std::string out;
  codec::AppendVarint(out, database_id.size());
  out += database_id;
  codec::AppendVarint(out, function_name.size());
  out += function_name;
  out.push_back(change.deleted ? 1 : 0);
  out.push_back(change.old_doc.has_value() ? 1 : 0);
  codec::AppendVarint(out, static_cast<uint64_t>(commit_ts));
  Document name_holder(change.name, {});
  std::string name_bytes = codec::SerializeDocument(name_holder);
  codec::AppendVarint(out, name_bytes.size());
  out += name_bytes;
  auto append_doc = [&out](const std::optional<Document>& doc) {
    if (!doc.has_value()) {
      codec::AppendVarint(out, 0);
      return;
    }
    std::string bytes = codec::SerializeDocument(*doc);
    codec::AppendVarint(out, bytes.size());
    out += bytes;
  };
  append_doc(change.new_doc);
  append_doc(change.old_doc);
  // End-to-end checksum on the in-flight payload (paper §VI).
  AppendChecksum(out);
  return out;
}

StatusOr<TriggerEvent> TriggerEvent::Parse(std::string_view data) {
  if (!VerifyAndStripChecksum(&data)) {
    return InternalError("trigger event checksum mismatch");
  }
  TriggerEvent event;
  auto read_sized = [&data](std::string* out) -> bool {
    uint64_t n;
    if (!codec::ParseVarint(&data, &n) || data.size() < n) return false;
    out->assign(data.substr(0, n));
    data.remove_prefix(n);
    return true;
  };
  std::string name_bytes, new_bytes, old_bytes;
  if (!read_sized(&event.database_id) || !read_sized(&event.function_name) ||
      data.size() < 2) {
    return InternalError("corrupt trigger event");
  }
  event.change.deleted = data[0] != 0;
  bool has_old = data[1] != 0;
  data.remove_prefix(2);
  uint64_t ts;
  if (!codec::ParseVarint(&data, &ts)) {
    return InternalError("corrupt trigger event ts");
  }
  event.commit_ts = static_cast<Timestamp>(ts);
  if (!read_sized(&name_bytes)) return InternalError("corrupt trigger name");
  ASSIGN_OR_RETURN(Document name_holder, codec::ParseDocument(name_bytes));
  event.change.name = name_holder.name();
  if (!read_sized(&new_bytes) || !read_sized(&old_bytes)) {
    return InternalError("corrupt trigger docs");
  }
  if (!new_bytes.empty()) {
    ASSIGN_OR_RETURN(Document d, codec::ParseDocument(new_bytes));
    event.change.new_doc = std::move(d);
  }
  if (has_old && !old_bytes.empty()) {
    ASSIGN_OR_RETURN(Document d, codec::ParseDocument(old_bytes));
    event.change.old_doc = std::move(d);
  }
  return event;
}

namespace {

// Margin added to now for a commit's max timestamp M (paper §IV-D2 step 5).
constexpr Micros kMaxCommitMargin = 2'000'000;

// Checks `m`'s precondition against the running state, then applies it;
// returns the new document or nullopt for delete.
StatusOr<std::optional<Document>> ApplyMutation(
    const Mutation& m, const std::optional<Document>& current) {
  switch (m.precondition) {
    case Mutation::Precondition::kMustExist:
      if (!current.has_value()) {
        return NotFoundError("document does not exist: " +
                             m.name.CanonicalString());
      }
      break;
    case Mutation::Precondition::kMustNotExist:
      if (current.has_value()) {
        return AlreadyExistsError("document already exists: " +
                                  m.name.CanonicalString());
      }
      break;
    case Mutation::Precondition::kUpdateTimeEquals: {
      int64_t actual = current.has_value() ? current->update_time() : 0;
      if (actual != m.expected_update_time) {
        return FailedPreconditionError(
            "document changed since it was read: " +
            m.name.CanonicalString());
      }
      break;
    }
    case Mutation::Precondition::kNone:
      break;
  }
  std::optional<Document> next = m.ApplyTo(current);
  if (next.has_value()) RETURN_IF_ERROR(next->Validate());
  return next;
}

rules::AccessKind RuleKindFor(const Mutation& m, bool exists) {
  if (m.kind == Mutation::Kind::kDelete) return rules::AccessKind::kDelete;
  return exists ? rules::AccessKind::kUpdate : rules::AccessKind::kCreate;
}

}  // namespace

StatusOr<CommitResponse> Committer::Commit(
    const std::string& database_id, index::IndexCatalog& catalog,
    const std::vector<Mutation>& mutations,
    const std::vector<TriggerDefinition>& triggers,
    const rules::RuleSet* rules, const rules::AuthContext* auth) {
  auto txn = spanner_->BeginTransaction();
  return CommitInternal(database_id, catalog, *txn, mutations, triggers,
                        rules, auth);
}

StatusOr<CommitResponse> Committer::RunTransaction(
    const std::string& database_id, index::IndexCatalog& catalog,
    const TransactionBody& body,
    const std::vector<TriggerDefinition>& triggers, int max_attempts) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  // Attribute this loop's retry metrics to the committer
  // (retry.attempts{backend.run_transaction}).
  policy.name = "backend.run_transaction";
  RetryState retry(policy, /*seed=*/0x5eed);
  while (true) {
    auto txn = spanner_->BeginTransaction();
    StatusOr<std::vector<Mutation>> mutations = body(*txn);
    Status failure;
    if (!mutations.ok()) {
      failure = mutations.status();
    } else {
      StatusOr<CommitResponse> result = CommitInternal(
          database_id, catalog, *txn, *mutations, triggers, nullptr, nullptr);
      if (result.ok()) return result;
      failure = result.status();
    }
    if (!retry.ShouldRetryWrite(failure)) return failure;
  }
}

StatusOr<CommitResponse> Committer::CommitInternal(
    const std::string& database_id, index::IndexCatalog& catalog,
    spanner::ReadWriteTransaction& txn,
    const std::vector<Mutation>& mutations,
    const std::vector<TriggerDefinition>& triggers,
    const rules::RuleSet* rules, const rules::AuthContext* auth) {
  FS_SPAN("backend.commit");
  if (mutations.empty()) {
    return InvalidArgumentError("commit with no mutations");
  }
  for (const Mutation& m : mutations) {
    if (!m.name.IsDocumentPath()) {
      return InvalidArgumentError("'" + m.name.CanonicalString() +
                                  "' is not a document path");
    }
  }

  // Step 2: read every touched document with an exclusive lock, into one
  // record per canonical name (the order of the changes).
  struct Record {
    const ResourcePath* name;
    std::optional<Document> original, current;
  };
  std::map<std::string, Record> records;
  std::vector<Record*> record_of(mutations.size());
  {
    FS_SPAN("backend.commit.read_set");
    for (size_t i = 0; i < mutations.size(); ++i) {
      const ResourcePath& name = mutations[i].name;
      auto [it, inserted] = records.try_emplace(name.CanonicalString());
      record_of[i] = &it->second;
      if (!inserted) continue;
      Timestamp version = 0;
      ASSIGN_OR_RETURN(
          spanner::RowValue row,
          txn.Read(index::kEntitiesTable, index::EntityKey(database_id, name),
                   spanner::LockMode::kExclusive, &version));
      ASSIGN_OR_RETURN(std::optional<Document> doc,
                       codec::DecodeEntityRow(row, version));
      it->second = {&name, doc, std::move(doc)};
    }
  }

  // Transactionally-consistent lookup for rules get()/exists().
  rules::DocumentLookup lookup =
      [this, &txn, &database_id](
          const ResourcePath& path)
      -> StatusOr<std::optional<Document>> {
    Timestamp version = 0;
    ASSIGN_OR_RETURN(spanner::RowValue row,
                     txn.Read(index::kEntitiesTable,
                              index::EntityKey(database_id, path),
                              spanner::LockMode::kShared, &version));
    return codec::DecodeEntityRow(row, version);
  };

  // Steps 2b-3: preconditions, security rules, new document states.
  for (size_t i = 0; i < mutations.size(); ++i) {
    const Mutation& m = mutations[i];
    std::optional<Document>& current = record_of[i]->current;
    ASSIGN_OR_RETURN(std::optional<Document> next,
                     ApplyMutation(m, current));
    if (rules != nullptr) {
      rules::AccessRequest request;
      request.kind = RuleKindFor(m, current.has_value());
      request.path = m.name;
      request.auth = auth != nullptr ? *auth : rules::AuthContext{};
      request.resource = current;
      request.new_resource = next;
      request.lookup = lookup;
      Status allowed = rules->Authorize(request);
      if (!allowed.ok()) {
        txn.Abort();
        return allowed;
      }
    }
    current = std::move(next);
  }

  // Step 4: buffer entity rows and index-entry deltas, under one catalog
  // snapshot taken after step 2's locks (see firestore/index/catalog.h).
  std::shared_ptr<const index::CatalogSnapshot> indexes = catalog.Snapshot();
  CommitResponse response;
  std::vector<ResourcePath> names;
  int64_t writes = 0, deletes = 0, storage_delta = 0;
  for (auto& [key, record] : records) {
    std::optional<Document>& old_doc = record.original;
    std::optional<Document>& new_doc = record.current;
    const ResourcePath& name = *record.name;
    if (!old_doc.has_value() && !new_doc.has_value()) continue;  // no-op
    names.push_back(name);

    std::vector<std::string> old_entries;
    if (old_doc.has_value()) {
      // An automatic index the snapshot lacks has no entries to delete.
      old_entries = index::ComputeIndexEntries(*indexes, database_id, *old_doc);
      storage_delta -= static_cast<int64_t>(old_doc->ByteSize());
    }
    std::vector<std::string> new_entries;
    if (new_doc.has_value()) {
      // Persist the resolved create time; 0 means "insert" (the row version
      // becomes the create time on read).
      Document to_store = *new_doc;
      if (!old_doc.has_value()) to_store.set_create_time(0);
      to_store.set_update_time(0);
      txn.Put(index::kEntitiesTable, index::EntityKey(database_id, name),
              codec::SerializeDocument(to_store));
      // A document needing automatic indexes the snapshot lacks
      // materializes them; the commit goes on under the snapshot that
      // publishes.
      std::vector<index::AutoIndexKey> missing;
      new_entries = index::ComputeIndexEntries(*indexes, database_id,
                                               *new_doc, &missing);
      if (!missing.empty()) {
        indexes = catalog.MaterializeAutoIndexes(missing);
        new_entries =
            index::ComputeIndexEntries(*indexes, database_id, *new_doc);
      }
      storage_delta += static_cast<int64_t>(new_doc->ByteSize());
      ++writes;
    } else {
      txn.Delete(index::kEntitiesTable, index::EntityKey(database_id, name));
      ++deletes;
    }
    // One merge of the two sorted sets keeps the work proportional to the
    // change, and moves each changed entry into the write set.
    auto o = old_entries.begin();
    auto n = new_entries.begin();
    while (o != old_entries.end() || n != new_entries.end()) {
      if (n == new_entries.end() || (o != old_entries.end() && *o < *n)) {
        txn.Delete(index::kIndexEntriesTable, std::move(*o++));
      } else if (o == old_entries.end() || *n < *o) {
        txn.Put(index::kIndexEntriesTable, std::move(*n++), "");
      } else {
        ++o;
        ++n;
        continue;
      }
      ++response.index_entries_written;
    }

    DocumentChange change;
    change.name = name;
    change.deleted = !new_doc.has_value();
    change.new_doc = std::move(new_doc);
    change.old_doc = std::move(old_doc);
    // The commit's trace context travels with the change through the
    // realtime pipeline (Changelog buffer -> QueryMatcher -> Frontend), so
    // the async notification leg joins this trace.
    change.trace = CurrentTraceContext();
    response.changes.push_back(std::move(change));
  }
  if (names.empty()) {
    txn.Abort();
    return InvalidArgumentError("commit had no effective mutations");
  }

  // Trigger messages ride the transactional message queue (paper §IV-D2:
  // "the Backend persists a message with the changes to document(s)").
  for (const DocumentChange& change : response.changes) {
    for (const TriggerDefinition& trigger : triggers) {
      if (!trigger.MatchesPath(change.name)) continue;
      TriggerEvent event;
      event.database_id = database_id;
      event.function_name = trigger.function_name;
      event.change = change;
      txn.AddMessage(kTriggerTopic, event.Serialize());
    }
  }

  // Step 5: Prepare with the Real-time Cache.
  Timestamp max_ts = clock_->NowMicros() + kMaxCommitMargin;
  Timestamp min_ts = 0;
  uint64_t prepare_token = 0;
  if (realtime_ != nullptr) {
    FS_SPAN("backend.commit.prepare");
    if (Status fault = FS_FAULT_POINT("committer.prepare"); !fault.ok()) {
      txn.Abort();
      return fault;
    }
    StatusOr<PrepareHandle> prepared =
        realtime_->Prepare(database_id, names, max_ts);
    if (!prepared.ok()) {
      txn.Abort();
      return prepared.status();
    }
    min_ts = prepared->min_commit_ts;
    prepare_token = prepared->token;
  }

  // Step 6: Spanner commit within [min_ts, max_ts].
  if (Status fault = FS_FAULT_POINT("committer.commit"); !fault.ok()) {
    txn.Abort();
    if (realtime_ != nullptr) {
      realtime_->Accept(prepare_token, WriteOutcome::kFailed, 0, {});
    }
    return fault;
  }
  StatusOr<spanner::CommitResult> commit = [&] {
    FS_SPAN("backend.commit.spanner");
    return txn.Commit(min_ts, max_ts);
  }();
  if (!commit.ok()) {
    if (realtime_ != nullptr) {
      realtime_->Accept(prepare_token, WriteOutcome::kFailed, 0, {});
    }
    return commit.status();
  }
  response.commit_ts = commit->commit_ts;
  response.spanner_participants = commit->participants;

  // Resolve the timestamps in the reported changes.
  for (DocumentChange& change : response.changes) {
    if (change.new_doc.has_value()) {
      change.new_doc->set_update_time(response.commit_ts);
      if (change.new_doc->create_time() == 0) {
        change.new_doc->set_create_time(response.commit_ts);
      }
    }
  }

  // Step 7: Accept.
  if (realtime_ != nullptr) {
    FS_SPAN("backend.commit.accept");
    if (FS_FAULT_TRIGGERED("committer.outcome_unknown")) {
      realtime_->Accept(prepare_token, WriteOutcome::kUnknown, 0, {});
      // The commit actually succeeded; the client sees a timeout.
      return DeadlineExceededError("Spanner commit outcome unknown");
    }
    realtime_->Accept(prepare_token, WriteOutcome::kSuccess,
                      response.commit_ts, response.changes);
  }

  if (billing_ != nullptr) {
    if (writes > 0) billing_->RecordWrites(database_id, writes);
    if (deletes > 0) billing_->RecordDeletes(database_id, deletes);
    billing_->AdjustStorage(database_id, storage_delta);
  }
  return response;
}

}  // namespace firestore::backend
