#include "firestore/codec/document_codec.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace firestore::codec {

using model::Array;
using model::Document;
using model::Map;
using model::ResourcePath;
using model::Value;
using model::ValueType;

namespace {

enum WireType : uint8_t {
  kWireNull = 0,
  kWireFalse = 1,
  kWireTrue = 2,
  kWireInt64 = 3,
  kWireDouble = 4,
  kWireTimestamp = 5,
  kWireString = 6,
  kWireBytes = 7,
  kWireReference = 8,
  kWireArray = 9,
  kWireMap = 10,
};

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void AppendString(std::string& dst, std::string_view s) {
  AppendVarint(dst, s.size());
  dst.append(s);
}

bool ParseString(std::string_view* src, std::string* out) {
  uint64_t len;
  if (!ParseVarint(src, &len) || src->size() < len) return false;
  out->assign(src->substr(0, len));
  src->remove_prefix(len);
  return true;
}

void SerializeValue(std::string& dst, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      dst.push_back(kWireNull);
      return;
    case ValueType::kBoolean:
      dst.push_back(v.boolean_value() ? kWireTrue : kWireFalse);
      return;
    case ValueType::kNumber:
      if (v.is_integer()) {
        dst.push_back(kWireInt64);
        AppendVarint(dst, ZigZag(v.integer_value()));
      } else {
        dst.push_back(kWireDouble);
        uint64_t bits = std::bit_cast<uint64_t>(v.double_value());
        for (int i = 0; i < 8; ++i) {
          dst.push_back(static_cast<char>((bits >> (i * 8)) & 0xff));
        }
      }
      return;
    case ValueType::kTimestamp:
      dst.push_back(kWireTimestamp);
      AppendVarint(dst, ZigZag(v.timestamp_value()));
      return;
    case ValueType::kString:
      dst.push_back(kWireString);
      AppendString(dst, v.string_value());
      return;
    case ValueType::kBytes:
      dst.push_back(kWireBytes);
      AppendString(dst, v.bytes_value());
      return;
    case ValueType::kReference:
      dst.push_back(kWireReference);
      AppendString(dst, v.reference_value());
      return;
    case ValueType::kArray: {
      dst.push_back(kWireArray);
      AppendVarint(dst, v.array_value().size());
      for (const Value& e : v.array_value()) SerializeValue(dst, e);
      return;
    }
    case ValueType::kMap: {
      dst.push_back(kWireMap);
      AppendVarint(dst, v.map_value().size());
      for (const auto& [k, e] : v.map_value()) {
        AppendString(dst, k);
        SerializeValue(dst, e);
      }
      return;
    }
  }
}

bool ParseValue(std::string_view* src, Value* out) {
  if (src->empty()) return false;
  uint8_t wire = static_cast<uint8_t>(src->front());
  src->remove_prefix(1);
  switch (wire) {
    case kWireNull:
      *out = Value::Null();
      return true;
    case kWireFalse:
      *out = Value::Boolean(false);
      return true;
    case kWireTrue:
      *out = Value::Boolean(true);
      return true;
    case kWireInt64: {
      uint64_t z;
      if (!ParseVarint(src, &z)) return false;
      *out = Value::Integer(UnZigZag(z));
      return true;
    }
    case kWireDouble: {
      if (src->size() < 8) return false;
      uint64_t bits = 0;
      for (int i = 7; i >= 0; --i) {
        bits = (bits << 8) | static_cast<unsigned char>((*src)[i]);
      }
      src->remove_prefix(8);
      *out = Value::Double(std::bit_cast<double>(bits));
      return true;
    }
    case kWireTimestamp: {
      uint64_t z;
      if (!ParseVarint(src, &z)) return false;
      *out = Value::Timestamp(UnZigZag(z));
      return true;
    }
    case kWireString: {
      std::string s;
      if (!ParseString(src, &s)) return false;
      *out = Value::String(std::move(s));
      return true;
    }
    case kWireBytes: {
      std::string s;
      if (!ParseString(src, &s)) return false;
      *out = Value::Bytes(std::move(s));
      return true;
    }
    case kWireReference: {
      std::string s;
      if (!ParseString(src, &s)) return false;
      *out = Value::Reference(std::move(s));
      return true;
    }
    case kWireArray: {
      uint64_t n;
      if (!ParseVarint(src, &n)) return false;
      Array elements;
      // n is untrusted: each element consumes at least one byte, so cap the
      // reservation by the remaining input (a hostile count must not OOM).
      elements.reserve(std::min<uint64_t>(n, src->size()));
      for (uint64_t i = 0; i < n; ++i) {
        Value e;
        if (!ParseValue(src, &e)) return false;
        elements.push_back(std::move(e));
      }
      *out = Value::FromArray(std::move(elements));
      return true;
    }
    case kWireMap: {
      uint64_t n;
      if (!ParseVarint(src, &n)) return false;
      Map entries;
      for (uint64_t i = 0; i < n; ++i) {
        std::string k;
        Value e;
        if (!ParseString(src, &k) || !ParseValue(src, &e)) return false;
        entries.emplace(std::move(k), std::move(e));
      }
      *out = Value::FromMap(std::move(entries));
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

void AppendVarint(std::string& dst, uint64_t value) {
  while (value >= 0x80) {
    dst.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  dst.push_back(static_cast<char>(value));
}

bool ParseVarint(std::string_view* src, uint64_t* out) {
  uint64_t result = 0;
  int shift = 0;
  while (!src->empty() && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(src->front());
    src->remove_prefix(1);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

std::string SerializeDocument(const Document& doc) {
  std::string dst;
  AppendVarint(dst, doc.name().segments().size());
  for (const std::string& segment : doc.name().segments()) {
    AppendString(dst, segment);
  }
  AppendVarint(dst, ZigZag(doc.create_time()));
  AppendVarint(dst, ZigZag(doc.update_time()));
  AppendVarint(dst, doc.fields().size());
  for (const auto& [k, v] : doc.fields()) {
    AppendString(dst, k);
    SerializeValue(dst, v);
  }
  return dst;
}

StatusOr<std::optional<Document>> DecodeEntityRow(
    std::optional<std::string_view> row, int64_t row_version) {
  if (!row.has_value()) return std::optional<Document>();
  ASSIGN_OR_RETURN(Document doc, ParseDocument(*row));
  doc.set_update_time(row_version);
  if (doc.create_time() == 0) doc.set_create_time(row_version);
  return std::optional<Document>(std::move(doc));
}

StatusOr<Document> ParseDocument(std::string_view data) {
  uint64_t num_segments;
  if (!ParseVarint(&data, &num_segments)) {
    return InternalError("corrupt document: name");
  }
  std::vector<std::string> segments;
  segments.reserve(std::min<uint64_t>(num_segments, data.size()));
  for (uint64_t i = 0; i < num_segments; ++i) {
    std::string s;
    if (!ParseString(&data, &s)) {
      return InternalError("corrupt document: name segment");
    }
    segments.push_back(std::move(s));
  }
  uint64_t create_z, update_z, num_fields;
  if (!ParseVarint(&data, &create_z) || !ParseVarint(&data, &update_z) ||
      !ParseVarint(&data, &num_fields)) {
    return InternalError("corrupt document: header");
  }
  Map fields;
  for (uint64_t i = 0; i < num_fields; ++i) {
    std::string k;
    Value v;
    if (!ParseString(&data, &k) || !ParseValue(&data, &v)) {
      return InternalError("corrupt document: field");
    }
    fields.emplace(std::move(k), std::move(v));
  }
  if (!data.empty()) return InternalError("corrupt document: trailing bytes");
  Document doc(ResourcePath(std::move(segments)), std::move(fields));
  doc.set_create_time(UnZigZag(create_z));
  doc.set_update_time(UnZigZag(update_z));
  return doc;
}

}  // namespace firestore::codec
