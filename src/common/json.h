// Minimal JSON document type: parse, serialize, navigate.
//
// Exists so the observability layer can round-trip metric snapshots and the
// bench harnesses can emit (and self-check) machine-readable BENCH_*.json
// output without an external dependency. Supports the full JSON value grammar
// except exotic number forms; numbers are held as doubles, with integers
// up to 2^53 round-tripping exactly (metric counters are well below that in
// any realistic run; the emitter prints integral values without a fraction).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace raincore {

class JsonValue {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  JsonValue() = default;
  static JsonValue null() { return JsonValue{}; }
  static JsonValue boolean(bool b);
  static JsonValue number(double n);
  static JsonValue string(std::string s);
  static JsonValue array();
  static JsonValue object();

  Type type() const { return type_; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return num_; }
  /// The value as a whole number in [0, max]: false, leaving `out` as it
  /// was, for a non-number, a fraction, a negative, NaN or anything above
  /// `max`. Read every unsigned integer from outside input this way — a
  /// double cast straight to an unsigned type is undefined out of range.
  bool read_uint(std::uint64_t max, std::uint64_t& out) const;
  const std::string& as_string() const { return str_; }
  std::vector<JsonValue>& items() { return arr_; }
  const std::vector<JsonValue>& items() const { return arr_; }
  std::vector<std::pair<std::string, JsonValue>>& members() { return obj_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return obj_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;

  /// Appends to an array (converts a null value into an array first).
  void push_back(JsonValue v);
  /// Sets an object member (converts a null value into an object first);
  /// replaces an existing member of the same name.
  void set(const std::string& key, JsonValue v);

  /// Compact single-line serialization (stable member order = insertion).
  std::string dump() const;

  /// Strict parse of a complete JSON document (trailing junk rejected).
  static bool parse(const std::string& text, JsonValue& out);

  bool operator==(const JsonValue&) const = default;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
};

}  // namespace raincore
