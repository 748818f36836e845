#include "firestore/index/catalog.h"

#include "common/logging.h"

namespace firestore::index {

std::string IndexDefinition::DebugString() const {
  static constexpr const char* kKinds[] = {" asc", " desc", " array-contains"};
  std::string out = "index#" + std::to_string(index_id) + " on ";
  out.append(collection_id).append(" (");
  for (size_t i = 0; i < segments.size(); ++i) {
    if (i > 0) out.append(", ");
    out.append(segments[i].field.CanonicalString())
        .append(kKinds[static_cast<int>(segments[i].kind)]);
  }
  out.push_back(')');
  return out;
}

const IndexDefinition* CatalogSnapshot::Find(IndexId index_id) const {
  auto it = indexes.find(index_id);
  return it == indexes.end() ? nullptr : &it->second;
}

IndexId CatalogSnapshot::AutoIndexId(std::string_view collection_id,
                                     std::string_view field,
                                     SegmentKind kind) const {
  auto it = auto_ids.find(std::make_tuple(collection_id, field, kind));
  return it == auto_ids.end() ? 0 : it->second;
}

bool CatalogSnapshot::IsExempted(std::string_view collection_id,
                                 std::string_view field) const {
  return exemptions.count(std::make_pair(collection_id, field)) != 0;
}

std::vector<const IndexDefinition*> CatalogSnapshot::ActiveIndexes(
    const std::string& collection_id, spanner::Timestamp read_ts) const {
  std::vector<const IndexDefinition*> result;
  for (const auto& [id, def] : indexes) {
    if (def.collection_id == collection_id &&
        def.state == IndexState::kActive && def.active_since <= read_ts) {
      result.push_back(&def);
    }
  }
  return result;
}

std::vector<const IndexDefinition*> CatalogSnapshot::MaintainedComposites(
    const std::string& collection_id) const {
  std::vector<const IndexDefinition*> result;
  for (const auto& [id, def] : indexes) {
    if (def.collection_id == collection_id && !def.automatic) {
      result.push_back(&def);
    }
  }
  return result;
}

std::shared_ptr<const CatalogSnapshot> IndexCatalog::Snapshot() const {
  MutexLock lock(&mu_);
  return snapshot_;
}

StatusOr<std::shared_ptr<const CatalogSnapshot>> IndexCatalog::Publish(
    const std::function<Status(CatalogSnapshot&)>& edit) {
  MutexLock lock(&mu_);
  auto next = std::make_shared<CatalogSnapshot>(*snapshot_);
  ++next->version;
  RETURN_IF_ERROR(edit(*next));
  snapshot_ = std::move(next);
  return snapshot_;
}

std::shared_ptr<const CatalogSnapshot> IndexCatalog::MaterializeAutoIndexes(
    const std::vector<AutoIndexKey>& wanted) {
  return *Publish([&](CatalogSnapshot& next) {
    for (const auto& [collection_id, field, kind] : wanted) {
      const std::string canonical = field.CanonicalString();
      if (next.IsExempted(collection_id, canonical) ||
          next.AutoIndexId(collection_id, canonical, kind) != 0) {
        continue;
      }
      // Automatic indexes are active from birth.
      next.indexes[next.next_id] = {next.next_id, collection_id,
                                    {{field, kind}}, IndexState::kActive,
                                    /*automatic=*/true};
      next.auto_ids.emplace(std::make_tuple(collection_id, canonical, kind),
                            next.next_id++);
    }
    return Status::Ok();
  });
}

std::vector<IndexId> IndexCatalog::AddExemption(
    const std::string& collection_id, const model::FieldPath& field) {
  std::vector<IndexId> removing;
  FS_CHECK_OK(Publish([&](CatalogSnapshot& next) {
    next.exemptions.emplace(collection_id, field.CanonicalString());
    for (auto& [id, def] : next.indexes) {
      if (def.automatic && def.collection_id == collection_id &&
          def.segments[0].field == field) {
        def.state = IndexState::kRemoving;
        removing.push_back(id);
      }
    }
    return Status::Ok();
  }).status());
  return removing;
}

StatusOr<IndexId> IndexCatalog::AddCompositeIndex(
    const std::string& collection_id, std::vector<IndexSegment> segments,
    IndexState initial_state) {
  if (segments.empty()) {
    return InvalidArgumentError("composite index needs at least one field");
  }
  for (const IndexSegment& s : segments) {
    if (s.kind == SegmentKind::kArrayContains && segments.size() > 1) {
      // Mirrors Firestore: at most one array-contains segment, and we keep
      // it to automatic single-field indexes only.
      return InvalidArgumentError(
          "array-contains is only supported in single-field indexes");
    }
  }
  IndexId id = 0;
  RETURN_IF_ERROR(Publish([&](CatalogSnapshot& next) {
    // Reject exact duplicates.
    for (const auto& [existing, def] : next.indexes) {
      if (def.collection_id == collection_id && def.segments == segments &&
          def.state != IndexState::kRemoving) {
        return AlreadyExistsError("identical index already exists: " +
                                  def.DebugString());
      }
    }
    id = next.next_id++;
    next.indexes[id] = {id, collection_id, std::move(segments), initial_state,
                        /*automatic=*/false};
    return Status::Ok();
  }).status());
  return id;
}

Status IndexCatalog::SetIndexState(IndexId index_id, IndexState state,
                                   spanner::Timestamp active_since) {
  return Publish([&](CatalogSnapshot& next) {
    auto it = next.indexes.find(index_id);
    if (it == next.indexes.end()) return NotFoundError("no such index");
    it->second.state = state;
    if (state == IndexState::kActive) it->second.active_since = active_since;
    return Status::Ok();
  }).status();
}

Status IndexCatalog::RemoveIndex(IndexId index_id) {
  return Publish([&](CatalogSnapshot& next) {
    auto it = next.indexes.find(index_id);
    if (it == next.indexes.end()) return NotFoundError("no such index");
    const IndexDefinition& def = it->second;
    if (def.automatic) {
      const IndexSegment& segment = def.segments[0];
      next.auto_ids.erase(std::make_tuple(
          def.collection_id, segment.field.CanonicalString(), segment.kind));
    }
    next.indexes.erase(it);
    return Status::Ok();
  }).status();
}

}  // namespace firestore::index
