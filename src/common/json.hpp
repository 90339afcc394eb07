// Minimal JSON parser for machine-readable artifacts the repo itself emits
// (BENCH_*.json, run reports, serve stats documents). This is a consumer for
// trusted-ish local files — tools/benchdiff, udbscan_top, tests — not a
// general-purpose library: numbers are doubles (exactly how the writers emit
// them), objects preserve member order, duplicate keys keep the last value,
// and inputs are rejected with a Status instead of exceptions.
//
// Hardened the same way the wire decoders are: depth-capped recursion (a
// "[[[[..." bomb is an error, not a stack overflow), strict UTF-16 escape
// handling, and a trailing-garbage check, so feeding it a corrupted or
// adversarial file cannot UB.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace udb::json {

// Nesting beyond this depth is rejected (matches the spirit of the wire
// decoders' absurd-count guards; real udbscan documents nest < 10 deep).
inline constexpr std::size_t kMaxDepth = 64;

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  // Member order preserved; lookups are linear (documents are small).
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  // Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;

  // Dotted-path convenience: find_path("serve_ledger.holds").
  const Value* find_path(std::string_view path) const;

  std::string string_or(std::string fallback) const {
    return is_string() ? string : std::move(fallback);
  }
};

// Parses exactly one JSON document; trailing non-whitespace is an error.
[[nodiscard]] Status parse(std::string_view text, Value& out);

}  // namespace udb::json
