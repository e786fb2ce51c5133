// Minimal dependency-free JSON value and writer for the observability
// export path (docs/OBSERVABILITY.md documents the schema).
//
// Design choices, sized to this repo's needs:
//  * objects preserve insertion order so every exported document has a
//    stable, diff-friendly key order;
//  * numbers are doubles, printed without a fraction when integral and with
//    max_digits10 precision otherwise, so a reader round-trips exactly
//    every value the exporter produces (the tests read documents back with
//    their own parser; CI validates them in Python).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "obs/metrics.h"

namespace wcds::obs {

class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;  // insertion order

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}                      // NOLINT
  Json(bool value) : value_(value) {}                            // NOLINT
  Json(double value) : value_(value) {}                          // NOLINT
  Json(std::int64_t value)                                       // NOLINT
      : value_(static_cast<double>(value)) {}
  Json(std::uint64_t value)                                      // NOLINT
      : value_(static_cast<double>(value)) {}
  Json(int value) : value_(static_cast<double>(value)) {}        // NOLINT
  Json(unsigned value) : value_(static_cast<double>(value)) {}   // NOLINT
  Json(std::string value) : value_(std::move(value)) {}          // NOLINT
  Json(std::string_view value) : value_(std::string(value)) {}   // NOLINT
  Json(const char* value) : value_(std::string(value)) {}        // NOLINT

  [[nodiscard]] static Json array() { return Json(Array{}); }
  [[nodiscard]] static Json object() { return Json(Object{}); }

  [[nodiscard]] bool is_null() const;
  [[nodiscard]] bool is_bool() const;
  [[nodiscard]] bool is_number() const;
  [[nodiscard]] bool is_string() const;
  [[nodiscard]] bool is_array() const;
  [[nodiscard]] bool is_object() const;

  // Typed access; WCDS_REQUIRE_STATE on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  // Object insert-or-get (creates an object from null).
  Json& operator[](std::string_view key);
  // Object lookup; WCDS_REQUIRE_BOUNDS if missing.
  [[nodiscard]] const Json& at(std::string_view key) const;
  [[nodiscard]] bool contains(std::string_view key) const;

  // Array append (creates an array from null).
  void push_back(Json value);
  [[nodiscard]] std::size_t size() const;  // array/object element count

  // Serialize; indent < 0 emits compact single-line JSON, otherwise
  // pretty-prints with `indent` spaces per level.
  [[nodiscard]] std::string dump(int indent = 2) const;

 private:
  explicit Json(Array value) : value_(std::move(value)) {}
  explicit Json(Object value) : value_(std::move(value)) {}

  void write(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

// Snapshot serializers used by the bench exporter.
[[nodiscard]] Json to_json(const HistogramSnapshot& histogram);
[[nodiscard]] Json to_json(const MetricsSnapshot& snapshot);

}  // namespace wcds::obs
