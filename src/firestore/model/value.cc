#include "firestore/model/value.h"

#include <cmath>
#include <sstream>

#include "common/logging.h"

namespace firestore::model {

Value Value::Boolean(bool b) {
  Value v;
  v.rep_ = b;
  return v;
}
Value Value::Integer(int64_t i) {
  Value v;
  v.rep_ = i;
  return v;
}
Value Value::Double(double d) {
  Value v;
  v.rep_ = d;
  return v;
}
Value Value::Timestamp(int64_t micros) {
  Value v;
  v.rep_ = TimestampValue{micros};
  return v;
}
Value Value::String(std::string s) {
  Value v;
  v.rep_ = std::move(s);
  return v;
}
Value Value::Bytes(std::string b) {
  Value v;
  v.rep_ = BytesValue{std::move(b)};
  return v;
}
Value Value::Reference(std::string path) {
  Value v;
  v.rep_ = ReferenceValue{std::move(path)};
  return v;
}
Value Value::FromArray(Array a) {
  Value v;
  v.rep_ = std::move(a);
  return v;
}
Value Value::FromMap(Map m) {
  Value v;
  v.rep_ = std::move(m);
  return v;
}

ValueType Value::type() const {
  switch (rep_.index()) {
    case 0:
      return ValueType::kNull;
    case 1:
      return ValueType::kBoolean;
    case 2:
    case 3:
      return ValueType::kNumber;
    case 4:
      return ValueType::kTimestamp;
    case 5:
      return ValueType::kString;
    case 6:
      return ValueType::kBytes;
    case 7:
      return ValueType::kReference;
    case 8:
      return ValueType::kArray;
    case 9:
      return ValueType::kMap;
  }
  FS_LOG(FATAL) << "corrupt Value variant";
  return ValueType::kNull;
}

bool Value::boolean_value() const { return std::get<bool>(rep_); }
int64_t Value::integer_value() const { return std::get<int64_t>(rep_); }
double Value::double_value() const { return std::get<double>(rep_); }

double Value::AsDouble() const {
  if (is_integer()) return static_cast<double>(integer_value());
  return double_value();
}

int64_t Value::timestamp_value() const {
  return std::get<TimestampValue>(rep_).micros;
}
const std::string& Value::string_value() const {
  return std::get<std::string>(rep_);
}
const std::string& Value::bytes_value() const {
  return std::get<BytesValue>(rep_).data;
}
const std::string& Value::reference_value() const {
  return std::get<ReferenceValue>(rep_).path;
}
const Array& Value::array_value() const { return std::get<Array>(rep_); }
const Map& Value::map_value() const { return std::get<Map>(rep_); }
Map& Value::mutable_map_value() { return std::get<Map>(rep_); }

namespace {

template <typename T>
int ThreeWay(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

// Numbers compare numerically across int64/double; NaN sorts before every
// other number and equal to itself (index ordering must be total).
int CompareNumbers(const Value& a, const Value& b) {
  if (a.is_integer() && b.is_integer()) {
    return ThreeWay(a.integer_value(), b.integer_value());
  }
  double da = a.AsDouble();
  double db = b.AsDouble();
  bool na = std::isnan(da);
  bool nb = std::isnan(db);
  if (na || nb) {
    if (na && nb) return 0;
    return na ? -1 : 1;
  }
  // Mixed int/double: compare through long double to avoid precision loss on
  // large int64s that a double cannot represent exactly.
  if (a.is_integer() != b.is_integer()) {
    long double la = a.is_integer()
                         ? static_cast<long double>(a.integer_value())
                         : static_cast<long double>(a.double_value());
    long double lb = b.is_integer()
                         ? static_cast<long double>(b.integer_value())
                         : static_cast<long double>(b.double_value());
    return ThreeWay(la, lb);
  }
  return ThreeWay(da, db);
}

}  // namespace

int Value::Compare(const Value& other) const {
  ValueType ta = type();
  ValueType tb = other.type();
  if (ta != tb) return ThreeWay(static_cast<int>(ta), static_cast<int>(tb));
  switch (ta) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBoolean:
      return ThreeWay<int>(boolean_value(), other.boolean_value());
    case ValueType::kNumber:
      return CompareNumbers(*this, other);
    case ValueType::kTimestamp:
      return ThreeWay(timestamp_value(), other.timestamp_value());
    case ValueType::kString:
      return ThreeWay(string_value(), other.string_value());
    case ValueType::kBytes:
      return ThreeWay(bytes_value(), other.bytes_value());
    case ValueType::kReference:
      return ThreeWay(reference_value(), other.reference_value());
    case ValueType::kArray: {
      const Array& a = array_value();
      const Array& b = other.array_value();
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      return ThreeWay(a.size(), b.size());
    }
    case ValueType::kMap: {
      // Maps compare by sorted (key, value) pairs, lexicographically.
      const Map& a = map_value();
      const Map& b = other.map_value();
      auto ia = a.begin();
      auto ib = b.begin();
      for (; ia != a.end() && ib != b.end(); ++ia, ++ib) {
        int c = ThreeWay(ia->first, ib->first);
        if (c != 0) return c;
        c = ia->second.Compare(ib->second);
        if (c != 0) return c;
      }
      return ThreeWay(a.size(), b.size());
    }
  }
  FS_LOG(FATAL) << "unreachable";
  return 0;
}

size_t Value::ByteSize() const {
  switch (type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kBoolean:
      return 1;
    case ValueType::kNumber:
    case ValueType::kTimestamp:
      return 8;
    case ValueType::kString:
      return string_value().size() + 1;
    case ValueType::kBytes:
      return bytes_value().size() + 1;
    case ValueType::kReference:
      return reference_value().size() + 1;
    case ValueType::kArray: {
      size_t total = 2;
      for (const Value& v : array_value()) total += v.ByteSize();
      return total;
    }
    case ValueType::kMap: {
      size_t total = 2;
      for (const auto& [k, v] : map_value()) total += k.size() + v.ByteSize();
      return total;
    }
  }
  return 0;
}

std::string Value::ToString() const {
  std::ostringstream os;
  switch (type()) {
    case ValueType::kNull:
      os << "null";
      break;
    case ValueType::kBoolean:
      os << (boolean_value() ? "true" : "false");
      break;
    case ValueType::kNumber:
      if (is_integer()) {
        os << integer_value();
      } else {
        os << double_value();
      }
      break;
    case ValueType::kTimestamp:
      os << "ts(" << timestamp_value() << ")";
      break;
    case ValueType::kString:
      os << '"' << string_value() << '"';
      break;
    case ValueType::kBytes:
      os << "bytes(" << bytes_value().size() << ")";
      break;
    case ValueType::kReference:
      os << "ref(" << reference_value() << ")";
      break;
    case ValueType::kArray: {
      os << '[';
      bool first = true;
      for (const Value& v : array_value()) {
        if (!first) os << ", ";
        first = false;
        os << v.ToString();
      }
      os << ']';
      break;
    }
    case ValueType::kMap: {
      os << '{';
      bool first = true;
      for (const auto& [k, v] : map_value()) {
        if (!first) os << ", ";
        first = false;
        os << '"' << k << "\": " << v.ToString();
      }
      os << '}';
      break;
    }
  }
  return os.str();
}

}  // namespace firestore::model
