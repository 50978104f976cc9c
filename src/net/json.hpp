// Minimal JSON value for the service wire protocol (service/protocol).
//
// The daemon speaks newline-delimited JSON: one request object per line,
// one or more response objects per line. This is the complete value model
// that protocol needs — null, bool, number, string, array, object — with
// a recursive-descent parser and a deterministic writer (object keys
// serialize in insertion order; numbers use the shortest round-trip-exact
// rendering, so equal values always produce equal bytes). Numbers carry a
// double view plus, for non-negative integers, an exact unsigned 64-bit
// view: u64 counters (sequence numbers, base counts, k-mer counts) round
// trip losslessly above 2^53, where the double alone would round.
//
// Parse errors throw InputFormatError with byte-offset context — a
// malformed request maps to the documented "malformed input" exit/error
// class, exactly like a malformed FASTA file. The parser accepts anything
// `python3 -m json.tool` accepts for the subset we emit, including
// \uXXXX escapes (decoded to UTF-8, surrogate pairs included).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pima::net {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double n) : type_(Type::kNumber), number_(n) {}
  Json(int n) : Json(static_cast<std::int64_t>(n)) {}
  Json(std::int64_t n) : type_(Type::kNumber), number_(static_cast<double>(n)) {
    if (n >= 0) {
      uint_ = static_cast<std::uint64_t>(n);
      uint_exact_ = true;
    }
  }
  Json(std::uint64_t n)  // covers size_t
      : type_(Type::kNumber),
        number_(static_cast<double>(n)),
        uint_(n),
        uint_exact_(true) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw InputFormatError on a type mismatch so a
  /// protocol handler can treat "wrong field type" like any other
  /// malformed input.
  bool as_bool() const;
  double as_number() const;
  /// Exact unsigned 64-bit view of a number. Lossless for any value that
  /// was constructed from (or parsed as) a non-negative integer, even
  /// above 2^53; for other numbers falls back to a checked cast of the
  /// double and throws InputFormatError on negative, fractional, or
  /// out-of-range values.
  std::uint64_t as_uint64() const;
  const std::string& as_string() const;
  const std::vector<Json>& items() const;

  /// Object field access. `get` returns null for a missing key; the
  /// typed variants apply a default when the key is absent and throw on a
  /// type mismatch (a present-but-wrong-type field is a protocol error,
  /// not a default).
  bool has(const std::string& key) const;
  const Json& get(const std::string& key) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback = {}) const;
  double get_number(const std::string& key, double fallback = 0.0) const;
  std::uint64_t get_uint64(const std::string& key,
                           std::uint64_t fallback = 0) const;
  bool get_bool(const std::string& key, bool fallback = false) const;

  /// Object/array builders (object keys keep insertion order for
  /// deterministic serialization). `set` replaces an existing key's value
  /// in place.
  Json& set(const std::string& key, Json value);
  Json& push_back(Json value);

  /// Serializes on one line (no newline) — NDJSON framing appends it.
  std::string dump() const;

  /// Parses a complete JSON document; trailing non-whitespace is an
  /// error. Throws InputFormatError with byte offset context.
  static Json parse(const std::string& text);

  /// Escapes a string for embedding in JSON output (exposed for tests).
  static std::string escape(const std::string& s);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  // Exact integer view alongside the double: set whenever the value was
  // constructed from or parsed as a non-negative integer.
  std::uint64_t uint_ = 0;
  bool uint_exact_ = false;
  std::string string_;
  std::vector<Json> array_;
  // Insertion-ordered object storage: (key, value) pairs plus an index for
  // O(log n) lookup. Small objects only — wire messages.
  std::vector<std::pair<std::string, Json>> object_;

  const Json* find(const std::string& key) const;
};

}  // namespace pima::net
