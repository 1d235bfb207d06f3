// json.hpp — JSON document model, parser and writer (from scratch).
//
// `docdb` stores measurement documents as JSON values (paper Fig 3 schema),
// and persists collections as JSON-lines journals.  Objects preserve
// insertion order so serialized documents are stable and diffable.
#pragma once

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/result.hpp"

namespace upin::util {

class Value;

/// Insertion-ordered string->Value map.  Documents are small (tens of
/// fields), so linear scans beat tree/hash overhead and keep field order.
class JsonObject {
 public:
  using Entry = std::pair<std::string, Value>;
  using const_iterator = std::vector<Entry>::const_iterator;
  using iterator = std::vector<Entry>::iterator;

  JsonObject() = default;
  JsonObject(std::initializer_list<Entry> entries);

  [[nodiscard]] bool contains(std::string_view key) const noexcept;
  /// Pointer to the value for `key`, or nullptr.
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;
  [[nodiscard]] Value* find(std::string_view key) noexcept;
  /// Insert or overwrite.
  void set(std::string key, Value value);
  /// Room for `count` entries, for a builder that knows its size.
  void reserve(std::size_t count) { entries_.reserve(count); }
  /// Remove `key` if present; returns whether something was removed.
  bool erase(std::string_view key);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] const_iterator begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return entries_.end(); }
  [[nodiscard]] iterator begin() noexcept { return entries_.begin(); }
  [[nodiscard]] iterator end() noexcept { return entries_.end(); }

  bool operator==(const JsonObject& other) const;

 private:
  std::vector<Entry> entries_;
};

/// A JSON value: null, bool, 64-bit int, double, string, array or object.
/// Integers and doubles are kept distinct (ids and counters stay exact)
/// but compare and read interchangeably through `as_double()`.
class Value {
 public:
  using Array = std::vector<Value>;
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Value() noexcept : data_(nullptr) {}
  Value(std::nullptr_t) noexcept : data_(nullptr) {}             // NOLINT
  Value(bool value) noexcept : data_(value) {}                   // NOLINT
  Value(int value) noexcept : data_(std::int64_t{value}) {}      // NOLINT
  Value(unsigned value) noexcept                                 // NOLINT
      : data_(static_cast<std::int64_t>(value)) {}
  Value(std::int64_t value) noexcept : data_(value) {}           // NOLINT
  Value(std::size_t value) noexcept                              // NOLINT
      : data_(static_cast<std::int64_t>(value)) {}
  Value(double value) noexcept : data_(value) {}                 // NOLINT
  Value(const char* value) : data_(std::string(value)) {}        // NOLINT
  Value(std::string value) : data_(std::move(value)) {}          // NOLINT
  Value(std::string_view value) : data_(std::string(value)) {}   // NOLINT
  Value(Array value) : data_(std::move(value)) {}                // NOLINT
  Value(JsonObject value) : data_(std::move(value)) {}           // NOLINT

  /// Build an object value from key/value pairs.
  static Value object(std::initializer_list<JsonObject::Entry> entries) {
    return Value(JsonObject(entries));
  }
  /// Build an array value from elements.
  static Value array(std::initializer_list<Value> elements) {
    return Value(Array(elements));
  }

  // The read accessors below are defined inline: docdb's planner and the
  // schema readers call them once per field, and the build has no LTO to
  // inline them across translation units.
  [[nodiscard]] Type type() const noexcept {
    return static_cast<Type>(data_.index());
  }
  [[nodiscard]] const char* type_name() const noexcept;

  [[nodiscard]] bool is_null() const noexcept { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type() == Type::kBool; }
  [[nodiscard]] bool is_int() const noexcept { return type() == Type::kInt; }
  [[nodiscard]] bool is_double() const noexcept { return type() == Type::kDouble; }
  [[nodiscard]] bool is_number() const noexcept { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const noexcept { return type() == Type::kString; }
  [[nodiscard]] bool is_array() const noexcept { return type() == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return type() == Type::kObject; }

  // Checked accessors: a type mismatch asserts, and with assertions off
  // std::get throws std::bad_variant_access.
  [[nodiscard]] bool as_bool() const {
    assert(is_bool());
    return std::get<bool>(data_);
  }
  /// Integer read; a kDouble is truncated.
  [[nodiscard]] std::int64_t as_int() const {
    if (is_double()) return static_cast<std::int64_t>(std::get<double>(data_));
    assert(is_int());
    return std::get<std::int64_t>(data_);
  }
  /// Numeric read: works for both kInt and kDouble.
  [[nodiscard]] double as_double() const {
    if (is_int()) return static_cast<double>(std::get<std::int64_t>(data_));
    assert(is_double());
    return std::get<double>(data_);
  }
  [[nodiscard]] const std::string& as_string() const {
    assert(is_string());
    return std::get<std::string>(data_);
  }
  [[nodiscard]] const Array& as_array() const {
    assert(is_array());
    return std::get<Array>(data_);
  }
  [[nodiscard]] Array& as_array() {
    assert(is_array());
    return std::get<Array>(data_);
  }
  [[nodiscard]] const JsonObject& as_object() const {
    assert(is_object());
    return std::get<JsonObject>(data_);
  }
  [[nodiscard]] JsonObject& as_object() {
    assert(is_object());
    return std::get<JsonObject>(data_);
  }

  // Optional-style reads that never assert.
  [[nodiscard]] std::optional<bool> try_bool() const noexcept {
    if (is_bool()) return std::get<bool>(data_);
    return std::nullopt;
  }
  [[nodiscard]] std::optional<std::int64_t> try_int() const noexcept {
    if (is_int()) return std::get<std::int64_t>(data_);
    return std::nullopt;
  }
  [[nodiscard]] std::optional<double> try_double() const noexcept {
    if (is_int()) return static_cast<double>(std::get<std::int64_t>(data_));
    if (is_double()) return std::get<double>(data_);
    return std::nullopt;
  }
  [[nodiscard]] std::optional<std::string_view> try_string() const noexcept {
    if (is_string()) return std::string_view(std::get<std::string>(data_));
    return std::nullopt;
  }

  /// Object field lookup; nullptr when not an object or key missing.
  [[nodiscard]] const Value* get(std::string_view key) const noexcept;
  /// Dotted-path lookup, e.g. `get_path("stats.latency_ms")`.
  [[nodiscard]] const Value* get_path(std::string_view dotted) const noexcept;

  /// Object field write access (creates the field, converts null->object).
  Value& operator[](std::string_view key);

  /// Deep equality.  Int/double compare numerically (1 == 1.0).
  bool operator==(const Value& other) const;

  /// Serialize.  `indent < 0` -> compact single line; otherwise pretty
  /// printed with `indent` spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parse a complete JSON text.  Trailing garbage is an error.
  [[nodiscard]] static Result<Value> parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               JsonObject>
      data_;
};

// Defined here, where Value is complete, so callers inline them.

inline const Value* JsonObject::find(std::string_view key) const noexcept {
  for (const auto& [name, value] : entries_) {
    if (name == key) return &value;
  }
  return nullptr;
}

inline Value* JsonObject::find(std::string_view key) noexcept {
  for (auto& [name, value] : entries_) {
    if (name == key) return &value;
  }
  return nullptr;
}

inline const Value* Value::get(std::string_view key) const noexcept {
  const JsonObject* object = std::get_if<JsonObject>(&data_);
  return object == nullptr ? nullptr : object->find(key);
}

}  // namespace upin::util
