#include "obs/json.h"

#include <cmath>
#include <cstdio>

#include "check/check.h"

namespace wcds::obs {
namespace {

void write_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void write_number(std::string& out, double value) {
  // JSON has no NaN/Infinity; the exporter never produces them, but degrade
  // to null rather than emit an unparsable token if one slips through.
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", value);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", value);
  }
  out += buf;
}

void write_newline(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

bool Json::is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
bool Json::is_bool() const { return std::holds_alternative<bool>(value_); }
bool Json::is_number() const { return std::holds_alternative<double>(value_); }
bool Json::is_string() const { return std::holds_alternative<std::string>(value_); }
bool Json::is_array() const { return std::holds_alternative<Array>(value_); }
bool Json::is_object() const { return std::holds_alternative<Object>(value_); }

bool Json::as_bool() const {
  WCDS_REQUIRE_STATE(is_bool(), "Json: not a bool");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  WCDS_REQUIRE_STATE(is_number(), "Json: not a number");
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  WCDS_REQUIRE_STATE(is_string(), "Json: not a string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  WCDS_REQUIRE_STATE(is_array(), "Json: not an array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  WCDS_REQUIRE_STATE(is_object(), "Json: not an object");
  return std::get<Object>(value_);
}

Json& Json::operator[](std::string_view key) {
  if (is_null()) value_ = Object{};
  WCDS_REQUIRE_STATE(is_object(), "Json::operator[]: not an object");
  auto& object = std::get<Object>(value_);
  for (auto& [k, v] : object) {
    if (k == key) return v;
  }
  object.emplace_back(std::string(key), Json());
  return object.back().second;
}

const Json& Json::at(std::string_view key) const {
  for (const auto& entry : as_object()) {
    if (entry.first == key) return entry.second;
  }
  check::fail_bounds("Json::at", __FILE__, __LINE__,
                     "no key " + std::string(key));
}

bool Json::contains(std::string_view key) const {
  if (!is_object()) return false;
  for (const auto& entry : as_object()) {
    if (entry.first == key) return true;
  }
  return false;
}

void Json::push_back(Json value) {
  if (is_null()) value_ = Array{};
  WCDS_REQUIRE_STATE(is_array(), "Json::push_back: not an array");
  std::get<Array>(value_).push_back(std::move(value));
}

std::size_t Json::size() const {
  if (is_array()) return std::get<Array>(value_).size();
  WCDS_REQUIRE_STATE(is_object(), "Json::size: not a container");
  return std::get<Object>(value_).size();
}

void Json::write(std::string& out, int indent, int depth) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += std::get<bool>(value_) ? "true" : "false";
  } else if (is_number()) {
    write_number(out, std::get<double>(value_));
  } else if (is_string()) {
    write_escaped(out, std::get<std::string>(value_));
  } else if (is_array()) {
    const auto& array = std::get<Array>(value_);
    if (array.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    bool first = true;
    for (const auto& element : array) {
      if (!first) out.push_back(',');
      first = false;
      write_newline(out, indent, depth + 1);
      element.write(out, indent, depth + 1);
    }
    write_newline(out, indent, depth);
    out.push_back(']');
  } else {
    const auto& object = std::get<Object>(value_);
    if (object.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [key, element] : object) {
      if (!first) out.push_back(',');
      first = false;
      write_newline(out, indent, depth + 1);
      write_escaped(out, key);
      out += indent < 0 ? ":" : ": ";
      element.write(out, indent, depth + 1);
    }
    write_newline(out, indent, depth);
    out.push_back('}');
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

Json to_json(const HistogramSnapshot& histogram) {
  Json j = Json::object();
  j["count"] = histogram.count;
  j["min"] = histogram.min;
  j["max"] = histogram.max;
  j["mean"] = histogram.mean;
  j["p50"] = histogram.p50;
  j["p95"] = histogram.p95;
  return j;
}

Json to_json(const MetricsSnapshot& snapshot) {
  Json j = Json::object();
  Json& counters = j["counters"] = Json::object();
  for (const auto& [name, value] : snapshot.counters) counters[name] = value;
  Json& gauges = j["gauges"] = Json::object();
  for (const auto& [name, value] : snapshot.gauges) gauges[name] = value;
  Json& histograms = j["histograms"] = Json::object();
  for (const auto& [name, value] : snapshot.histograms) {
    histograms[name] = to_json(value);
  }
  return j;
}

}  // namespace wcds::obs
