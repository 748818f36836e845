#include "firestore/model/path.h"

namespace firestore::model {

namespace {

StatusOr<std::vector<std::string>> SplitNonEmpty(std::string_view path,
                                                 char sep) {
  std::vector<std::string> segments;
  size_t start = 0;
  while (start < path.size()) {
    size_t end = path.find(sep, start);
    if (end == std::string_view::npos) end = path.size();
    if (end == start) {
      return InvalidArgumentError("empty path segment in '" +
                                  std::string(path) + "'");
    }
    segments.emplace_back(path.substr(start, end - start));
    start = end + 1;
  }
  if (!path.empty() && path.back() == sep) {
    return InvalidArgumentError("trailing separator in '" + std::string(path) +
                                "'");
  }
  return segments;
}

}  // namespace

StatusOr<ResourcePath> ResourcePath::Parse(std::string_view path) {
  if (!path.empty() && path.front() == '/') path.remove_prefix(1);
  if (path.empty()) return InvalidArgumentError("empty resource path");
  ASSIGN_OR_RETURN(std::vector<std::string> segments,
                   SplitNonEmpty(path, '/'));
  return ResourcePath(std::move(segments));
}

ResourcePath ResourcePath::Parent() const {
  std::vector<std::string> parent(segments_.begin(),
                                  segments_.empty() ? segments_.end()
                                                    : segments_.end() - 1);
  return ResourcePath(std::move(parent));
}

ResourcePath ResourcePath::Child(std::string_view segment) const {
  std::vector<std::string> child = segments_;
  child.emplace_back(segment);
  return ResourcePath(std::move(child));
}

bool ResourcePath::IsPrefixOf(const ResourcePath& other) const {
  if (size() > other.size()) return false;
  for (size_t i = 0; i < size(); ++i) {
    if (segments_[i] != other.segments_[i]) return false;
  }
  return true;
}

std::string ResourcePath::CanonicalString() const {
  std::string result;
  for (const std::string& s : segments_) {
    result.push_back('/');
    result.append(s);
  }
  return result;
}

int ResourcePath::Compare(const ResourcePath& other) const {
  size_t n = std::min(size(), other.size());
  for (size_t i = 0; i < n; ++i) {
    int c = segments_[i].compare(other.segments_[i]);
    if (c != 0) return c < 0 ? -1 : 1;
  }
  if (size() != other.size()) return size() < other.size() ? -1 : 1;
  return 0;
}

StatusOr<FieldPath> FieldPath::Parse(std::string_view path) {
  if (path.empty()) return InvalidArgumentError("empty field path");
  ASSIGN_OR_RETURN(std::vector<std::string> segments,
                   SplitNonEmpty(path, '.'));
  return FieldPath(std::move(segments));
}

FieldPath FieldPath::Single(std::string name) {
  return FieldPath({std::move(name)});
}

std::string FieldPath::CanonicalString() const {
  std::string result;
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (i > 0) result.push_back('.');
    result.append(segments_[i]);
  }
  return result;
}

}  // namespace firestore::model
