#include "net/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace pima::net {

namespace {

[[noreturn]] void type_error(const char* want, Json::Type got) {
  static const char* const names[] = {"null",   "bool",  "number",
                                      "string", "array", "object"};
  throw InputFormatError(std::string("json: expected ") + want + ", got " +
                         names[static_cast<int>(got)]);
}

// Shortest round-trip-exact rendering (same discipline as the metrics
// registry): equal doubles always serialize to equal bytes, and integers
// below 2^53 render without an exponent or trailing ".0".
std::string format_number(double v) {
  if (!std::isfinite(v))
    throw InputFormatError("json: non-finite number cannot be serialized");
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::fabs(v) < 9.007199254740992e15) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%lld",
                  static_cast<long long>(static_cast<std::int64_t>(v)));
    return buf;
  }
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) break;
  }
  return buf;
}

// Appends `s` JSON-escaped. Each maximal run of bytes that needs no escape
// is copied with one append.
void escape_to(std::string& out, std::string_view s) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20)
      continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += buf;
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  escape_to(out, s);
  out += '"';
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json run() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw InputFormatError("json: " + msg + " at byte " +
                           std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(const char* literal, Json value, Json& out) {
    for (const char* p = literal; *p != '\0'; ++p)
      if (pos_ >= text_.size() || text_[pos_++] != *p)
        fail(std::string("invalid literal (expected '") + literal + "')");
    out = std::move(value);
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't': {
        Json v;
        expect("true", Json(true), v);
        return v;
      }
      case 'f': {
        Json v;
        expect("false", Json(false), v);
        return v;
      }
      case 'n': {
        Json v;
        expect("null", Json(), v);
        return v;
      }
      default: return parse_number();
    }
  }

  Json parse_object() {
    next();  // '{'
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      next();
      return obj;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("object key must be a string");
      std::string key = parse_string();
      skip_ws();
      if (next() != ':') fail("expected ':' after object key");
      obj.set(key, parse_value());
      skip_ws();
      const char c = next();
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    next();  // '['
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      next();
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = next();
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = next();
      v <<= 4;
      if (c >= '0' && c <= '9')
        v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        v |= static_cast<unsigned>(c - 'A' + 10);
      else
        fail("invalid \\u escape digit");
    }
    return v;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    next();  // '"'
    std::string out;
    for (;;) {
      // Copy the run of bytes up to the next quote, backslash or control
      // byte in one append.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20)
        ++pos_;
      out.append(text_, run, pos_ - run);
      const char c = next();
      if (c == '"') return out;
      if (c != '\\') fail("unescaped control character in string");
      const char e = next();
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // Surrogate pair: the low half must follow immediately.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
              fail("unpaired high surrogate");
            pos_ += 2;
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') next();
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-'))
      ++pos_;
    const std::string token = text_.substr(start, pos_ - start);
    // A plain non-negative integer parses into the exact u64 view first,
    // so counters above 2^53 survive a round trip byte-for-byte. Anything
    // else (sign, fraction, exponent, > 2^64-1) falls through to double.
    if (!token.empty() && token[0] != '-' &&
        token.find_first_of(".eE") == std::string::npos) {
      std::uint64_t u = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), u);
      if (ec == std::errc() && ptr == token.data() + token.size())
        return Json(u);
    }
    double v = 0.0;
    int consumed = 0;
    if (token.empty() ||
        std::sscanf(token.c_str(), "%lf%n", &v, &consumed) != 1 ||
        static_cast<std::size_t>(consumed) != token.size()) {
      pos_ = start;
      fail("invalid number '" + token + "'");
    }
    return Json(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return number_;
}

std::uint64_t Json::as_uint64() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  if (uint_exact_) return uint_;
  if (!(number_ >= 0.0) || number_ >= 18446744073709551616.0 ||
      number_ != std::floor(number_))
    throw InputFormatError("json: number is not an unsigned 64-bit integer");
  return static_cast<std::uint64_t>(number_);
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) type_error("object", type_);
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

bool Json::has(const std::string& key) const { return find(key) != nullptr; }

const Json& Json::get(const std::string& key) const {
  static const Json null;
  const Json* v = find(key);
  return v != nullptr ? *v : null;
}

std::string Json::get_string(const std::string& key,
                             const std::string& fallback) const {
  const Json* v = find(key);
  return v != nullptr ? v->as_string() : fallback;
}

double Json::get_number(const std::string& key, double fallback) const {
  const Json* v = find(key);
  return v != nullptr ? v->as_number() : fallback;
}

std::uint64_t Json::get_uint64(const std::string& key,
                               std::uint64_t fallback) const {
  const Json* v = find(key);
  return v != nullptr ? v->as_uint64() : fallback;
}

bool Json::get_bool(const std::string& key, bool fallback) const {
  const Json* v = find(key);
  return v != nullptr ? v->as_bool() : fallback;
}

Json& Json::set(const std::string& key, Json value) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) type_error("object", type_);
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push_back(Json value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) type_error("array", type_);
  array_.push_back(std::move(value));
  return *this;
}

std::string Json::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  escape_to(out, s);
  return out;
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kNumber: {
      if (uint_exact_) {
        char buf[24];
        const auto end = std::to_chars(buf, buf + sizeof buf, uint_).ptr;
        out.append(buf, end);
      } else {
        out += format_number(number_);
      }
      return;
    }
    case Type::kString: append_quoted(out, string_); return;
    case Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        array_[i].dump_to(out);
      }
      out += ']';
      return;
    }
    case Type::kObject: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        append_quoted(out, object_[i].first);
        out += ':';
        object_[i].second.dump_to(out);
      }
      out += '}';
      return;
    }
  }
}

Json Json::parse(const std::string& text) { return Parser(text).run(); }

void pack_uint(std::string& out, std::uint64_t v) {
  char buf[21];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  if (!out.empty()) out += ' ';
  out.append(buf, end);
}

std::vector<std::uint64_t> unpack_uints(std::string_view packed,
                                        std::string_view what) {
  std::vector<std::uint64_t> values;
  if (packed.empty()) return values;
  // n numbers take at least 2n - 1 bytes: a string of spaces reserves no
  // more than a valid list of its length could fill.
  values.reserve(std::min(
      1 + static_cast<std::size_t>(
              std::count(packed.begin(), packed.end(), ' ')),
      (packed.size() + 1) / 2));
  const char* const begin = packed.data();
  const char* const end = begin + packed.size();
  const auto bad = [&](const char* why, const char* at) {
    throw InputFormatError(std::string(what) + ": packed list: " + why +
                           " at byte " + std::to_string(at - begin));
  };
  const char* p = begin;
  for (;;) {
    std::uint64_t v = 0;
    // from_chars on an unsigned type takes digits only: no sign, no space.
    const auto [next, ec] = std::from_chars(p, end, v);
    if (ec == std::errc::result_out_of_range)
      bad("a value above 2^64 - 1", p);
    if (ec != std::errc()) bad("expected a digit", p);
    values.push_back(v);
    if (next == end) return values;
    if (*next != ' ') bad("expected a space or the end", next);
    p = next + 1;
  }
}

}  // namespace pima::net
