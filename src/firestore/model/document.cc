#include "firestore/model/document.h"

#include <sstream>

namespace firestore::model {

const Value* Document::FindField(const FieldPath& path) const {
  if (path.empty()) return nullptr;
  const Map* current = &fields_;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    auto it = current->find(path.segments()[i]);
    if (it == current->end() || it->second.type() != ValueType::kMap) {
      return nullptr;
    }
    current = &it->second.map_value();
  }
  auto it = current->find(path.segments().back());
  return it == current->end() ? nullptr : &it->second;
}

std::optional<Value> Document::GetField(const FieldPath& path) const {
  const Value* value = FindField(path);
  if (value == nullptr) return std::nullopt;
  return *value;
}

void Document::SetField(const FieldPath& path, Value value) {
  if (path.empty()) return;
  Map* current = &fields_;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    Value& slot = (*current)[path.segments()[i]];
    if (slot.type() != ValueType::kMap) slot = Value::FromMap({});
    current = &slot.mutable_map_value();
  }
  (*current)[path.segments().back()] = std::move(value);
}

void Document::DeleteField(const FieldPath& path) {
  if (path.empty()) return;
  Map* current = &fields_;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    auto it = current->find(path.segments()[i]);
    if (it == current->end() || it->second.type() != ValueType::kMap) return;
    current = &it->second.mutable_map_value();
  }
  current->erase(path.segments().back());
}

size_t Document::ByteSize() const {
  size_t total = name_.CanonicalString().size();
  for (const auto& [k, v] : fields_) total += k.size() + v.ByteSize();
  return total;
}

Status Document::Validate() const {
  if (!name_.IsDocumentPath()) {
    return InvalidArgumentError("'" + name_.CanonicalString() +
                                "' is not a document path");
  }
  if (ByteSize() > kMaxDocumentBytes) {
    return InvalidArgumentError("document exceeds the 1 MiB size limit");
  }
  return Status::Ok();
}

std::string Document::ToString() const {
  std::ostringstream os;
  os << name_.CanonicalString() << " " << Value::FromMap(fields_).ToString()
     << " @" << update_time_;
  return os.str();
}

}  // namespace firestore::model
