// Firestore's schemaless value model (paper §III-A).
//
// A document field holds a Value: one of the primitive types or a nested
// array/map. Values of *different* types are mutually comparable under a
// fixed cross-type ordering — this is what lets Firestore "sort on any value
// including arrays and maps and sort across fields with inconsistent types"
// (paper §IV-D1), and is the ordering the index-entry encoding must preserve.
//
// Cross-type order (ascending):
//   null < boolean < number (int64/double intermixed numerically, NaN first)
//        < timestamp < string < bytes < reference < array < map

#ifndef FIRESTORE_MODEL_VALUE_H_
#define FIRESTORE_MODEL_VALUE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace firestore::model {

class Value;

using Array = std::vector<Value>;
// std::map keeps keys sorted, which both the encoding and equality rely on.
using Map = std::map<std::string, Value>;

enum class ValueType {
  kNull = 0,
  kBoolean = 1,
  kNumber = 2,     // int64 and double share one ordering slot
  kTimestamp = 3,
  kString = 4,
  kBytes = 5,
  kReference = 6,  // document name, e.g. /restaurants/one
  kArray = 7,
  kMap = 8,
};

// Distinguishes a byte-string payload from a text string in the variant.
struct BytesValue {
  std::string data;
  auto operator<=>(const BytesValue&) const = default;
};

// A document reference by full path string.
struct ReferenceValue {
  std::string path;
  auto operator<=>(const ReferenceValue&) const = default;
};

// Microseconds since epoch; kept distinct from integers in the type order.
struct TimestampValue {
  int64_t micros = 0;
  auto operator<=>(const TimestampValue&) const = default;
};

class Value {
 public:
  Value() : rep_(std::monostate{}) {}  // null

  static Value Null() { return Value(); }
  static Value Boolean(bool b);
  static Value Integer(int64_t i);
  static Value Double(double d);
  static Value Timestamp(int64_t micros);
  static Value String(std::string s);
  static Value Bytes(std::string b);
  static Value Reference(std::string path);
  static Value FromArray(Array a);
  static Value FromMap(Map m);

  ValueType type() const;
  bool is_integer() const {
    return std::holds_alternative<int64_t>(rep_);
  }
  bool is_double() const { return std::holds_alternative<double>(rep_); }
  bool is_number() const { return is_integer() || is_double(); }

  // Accessors abort on type mismatch (internal invariant violations).
  bool boolean_value() const;
  int64_t integer_value() const;
  double double_value() const;
  // Any number as double (for numeric comparison).
  double AsDouble() const;
  int64_t timestamp_value() const;
  const std::string& string_value() const;
  const std::string& bytes_value() const;
  const std::string& reference_value() const;
  const Array& array_value() const;
  const Map& map_value() const;
  Map& mutable_map_value();

  // Total cross-type ordering described above. Integers and doubles compare
  // numerically (3 == 3.0); equal numeric values with different
  // representations are considered equal.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  // Approximate in-memory/billing size in bytes (the 1 MiB document limit is
  // enforced against this).
  size_t ByteSize() const;

  // Debug rendering, e.g. {"a": [1, "x"]}.
  std::string ToString() const;

 private:
  using Rep = std::variant<std::monostate, bool, int64_t, double,
                           TimestampValue, std::string, BytesValue,
                           ReferenceValue, Array, Map>;
  Rep rep_;
};

}  // namespace firestore::model

#endif  // FIRESTORE_MODEL_VALUE_H_
