// A Firestore document: a name plus a set of top-level fields, each holding a
// Value (paper §III-A). Documents are capped at 1 MiB.

#ifndef FIRESTORE_MODEL_DOCUMENT_H_
#define FIRESTORE_MODEL_DOCUMENT_H_

#include <optional>
#include <string>

#include "common/status.h"
#include "firestore/model/path.h"
#include "firestore/model/value.h"

namespace firestore::model {

inline constexpr size_t kMaxDocumentBytes = 1 << 20;  // 1 MiB

class Document {
 public:
  Document() = default;
  Document(ResourcePath name, Map fields)
      : name_(std::move(name)), fields_(std::move(fields)) {}

  const ResourcePath& name() const { return name_; }
  const Map& fields() const { return fields_; }

  // Commit timestamps (micros); 0 until the document is stored.
  int64_t create_time() const { return create_time_; }
  int64_t update_time() const { return update_time_; }
  void set_create_time(int64_t t) { create_time_ = t; }
  void set_update_time(int64_t t) { update_time_ = t; }

  // Looks up a (possibly nested) field in place; nullptr if absent or if
  // the path traverses a non-map. The pointer lives as long as the field.
  const Value* FindField(const FieldPath& path) const;

  // FindField, copied out; nullopt if absent.
  std::optional<Value> GetField(const FieldPath& path) const;

  // Sets a (possibly nested) field, creating intermediate maps.
  void SetField(const FieldPath& path, Value value);

  // Removes a (possibly nested) field; no-op if absent.
  void DeleteField(const FieldPath& path);

  // Approximate billing size; enforced against kMaxDocumentBytes at write
  // time.
  size_t ByteSize() const;

  // Checks the document size limit.
  Status Validate() const;

  bool operator==(const Document& other) const {
    // Map equality compares values with Value::operator==, so 3 == 3.0.
    return name_ == other.name_ && fields_ == other.fields_;
  }

  std::string ToString() const;

 private:
  ResourcePath name_;
  Map fields_;
  int64_t create_time_ = 0;
  int64_t update_time_ = 0;
};

}  // namespace firestore::model

#endif  // FIRESTORE_MODEL_DOCUMENT_H_
