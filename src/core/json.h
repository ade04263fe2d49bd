// Minimal JSON writer and reader — no external dependencies.
//
// The machine-readable result envelopes (`pp::to_json` over run_result /
// batch_result in core/registry.h, and ppdriver's --json output) are built
// on the writer: value() writes a vector as an array and a record with a
// field list (core/fields.h) as an object. The writer emits RFC 8259 JSON:
// objects/arrays with automatic comma placement, full string escaping, and
// doubles via %.17g (shortest round-trip is not required; 17 significant
// digits always round-trips). Non-finite doubles have no JSON spelling and
// are emitted as null.
//
// The reader (json::value + json::parse below) is the counterpart the
// ppserve daemon uses to decode newline-delimited request lines: a small
// recursive-descent RFC 8259 parser into a value variant. Integral number
// tokens that fit int64 are kept exact (seeds are 64-bit); everything else
// becomes double. \uXXXX escapes decode to UTF-8, including surrogate
// pairs; raw UTF-8 in strings passes through untouched.
//
//   pp::json::writer w;
//   w.begin_object();
//   w.member("solver", "lis/parallel").member("seconds", 0.123);
//   w.key("items").begin_array().value(int64_t{1}).value(int64_t{2}).end_array();
//   w.end_object();
//   puts(w.str().c_str());
#pragma once

#include <cerrno>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace pp::json {

class writer {
 public:
  writer& begin_object() {
    open('{');
    return *this;
  }
  writer& end_object() {
    close('}');
    return *this;
  }
  writer& begin_array() {
    open('[');
    return *this;
  }
  writer& end_array() {
    close(']');
    return *this;
  }

  // Object key; must be followed by exactly one value / begin_*.
  writer& key(std::string_view k) {
    separate();
    append_string(k);
    out_ += ": ";
    pending_key_ = true;
    return *this;
  }

  writer& value(std::string_view s) {
    separate();
    append_string(s);
    return *this;
  }
  writer& value(const char* s) { return value(std::string_view(s)); }
  writer& value(bool b) {
    separate();
    out_ += b ? "true" : "false";
    return *this;
  }
  writer& value(int64_t v) {
    separate();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out_ += buf;
    return *this;
  }
  writer& value(uint64_t v) {
    separate();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
    out_ += buf;
    return *this;
  }
  writer& value(double v) {
    separate();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
  }

  // Splice pre-serialized JSON in as one value (e.g. a nested envelope
  // another writer produced). The caller vouches that `json_text` is a
  // complete, valid JSON value.
  writer& value_raw(std::string_view json_text) {
    separate();
    out_ += json_text;
    return *this;
  }

  // Any other integer type, as the 64-bit type of its signedness.
  template <std::integral I>
    requires(!std::same_as<I, bool>)
  writer& value(I v) {
    if constexpr (std::is_signed_v<I>) return value(static_cast<int64_t>(v));
    else return value(static_cast<uint64_t>(v));
  }

  template <typename V>
  writer& value(const std::vector<V>& xs) {
    begin_array();
    for (const V& x : xs) value(x);
    return end_array();
  }

  // A record with a field list (core/fields.h): one object of its fields,
  // written by the write_fields overload found next to the record's type.
  template <typename R>
    requires requires(writer& w, const R& r) { write_fields(w, r); }
  writer& value(const R& r) {
    begin_object();
    write_fields(*this, r);
    return end_object();
  }

  template <typename V>
  writer& member(std::string_view k, const V& v) {
    key(k);
    return value(v);
  }

  const std::string& str() const { return out_; }

 private:
  void open(char c) {
    separate();
    out_ += c;
    need_comma_.push_back(false);
  }
  void close(char c) {
    if (!need_comma_.empty()) need_comma_.pop_back();
    out_ += c;
    if (!need_comma_.empty()) need_comma_.back() = true;
  }
  // Comma before the next element of the enclosing aggregate — unless this
  // value completes a `key:` pair (the comma was placed before the key).
  void separate() {
    if (pending_key_) {
      pending_key_ = false;
      return;
    }
    if (!need_comma_.empty()) {
      if (need_comma_.back()) out_ += ", ";
      need_comma_.back() = true;
    }
  }
  void append_string(std::string_view s) {
    out_ += '"';
    for (unsigned char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\b': out_ += "\\b"; break;
        case '\f': out_ += "\\f"; break;
        case '\n': out_ += "\\n"; break;
        case '\r': out_ += "\\r"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += static_cast<char>(c);
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> need_comma_;
  bool pending_key_ = false;
};

// ---- Reader -----------------------------------------------------------------

// A parsed JSON document. Objects keep member order (vector of pairs, not a
// map) and lookup is linear — request lines have a handful of keys.
class value {
 public:
  using array = std::vector<value>;
  using object = std::vector<std::pair<std::string, value>>;
  // Integral tokens keep an exact alternative: int64 normally, uint64 for
  // values in [2^63, 2^64) — the top half of the seed space, which a
  // double would silently round.
  using storage = std::variant<std::nullptr_t, bool, int64_t, uint64_t, double, std::string,
                               array, object>;

  value() : v_(nullptr) {}
  explicit value(storage v) : v_(std::move(v)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_number() const {
    return std::holds_alternative<int64_t>(v_) || std::holds_alternative<uint64_t>(v_) ||
           std::holds_alternative<double>(v_);
  }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<array>(v_); }
  bool is_object() const { return std::holds_alternative<object>(v_); }

  bool as_bool() const { return std::get<bool>(v_); }
  double as_double() const {
    if (const int64_t* i = std::get_if<int64_t>(&v_)) return static_cast<double>(*i);
    if (const uint64_t* u = std::get_if<uint64_t>(&v_)) return static_cast<double>(*u);
    return std::get<double>(v_);
  }
  int64_t as_int64() const {
    if (const int64_t* i = std::get_if<int64_t>(&v_)) return *i;
    if (const uint64_t* u = std::get_if<uint64_t>(&v_)) {
      return *u > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())
                 ? std::numeric_limits<int64_t>::max()
                 : static_cast<int64_t>(*u);
    }
    // Clamp instead of static_cast: converting an out-of-range double to
    // int64 is undefined behavior, and any daemon request line can carry
    // {"n": 1e300}. 2^63 itself is not representable, so clamp against
    // the largest double strictly below it.
    double d = std::get<double>(v_);
    if (std::isnan(d)) return 0;
    constexpr double kMax = 9223372036854774784.0;  // largest double < 2^63
    constexpr double kMin = -9223372036854775808.0;  // -2^63, exactly representable
    if (d >= kMax) return static_cast<int64_t>(kMax);
    if (d <= kMin) return std::numeric_limits<int64_t>::min();
    return static_cast<int64_t>(d);
  }
  uint64_t as_uint64() const {
    if (const uint64_t* u = std::get_if<uint64_t>(&v_)) return *u;
    if (const int64_t* i = std::get_if<int64_t>(&v_))
      return *i < 0 ? 0 : static_cast<uint64_t>(*i);
    double d = std::get<double>(v_);
    if (std::isnan(d) || d <= 0.0) return 0;
    constexpr double kMax = 18446744073709549568.0;  // largest double < 2^64
    if (d >= kMax) return static_cast<uint64_t>(kMax);
    return static_cast<uint64_t>(d);
  }
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const array& as_array() const { return std::get<array>(v_); }
  const object& as_object() const { return std::get<object>(v_); }

  // Object member lookup: the value under `key`, or nullptr when this is
  // not an object or has no such member.
  const value* find(std::string_view key) const {
    const object* o = std::get_if<object>(&v_);
    if (o == nullptr) return nullptr;
    for (const auto& [k, v] : *o)
      if (k == key) return &v;
    return nullptr;
  }

  storage& raw() { return v_; }
  const storage& raw() const { return v_; }

 private:
  storage v_;
};

namespace detail {

struct parser {
  const char* p;
  const char* end;
  std::string err;

  bool fail(const std::string& what) {
    if (err.empty())
      err = what + " at offset " + std::to_string(static_cast<size_t>(p - begin));
    return false;
  }
  const char* begin;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
  }
  bool consume(char c) {
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  bool literal(const char* lit) {
    const char* q = lit;
    const char* save = p;
    while (*q != '\0') {
      if (p >= end || *p != *q) {
        p = save;
        return false;
      }
      ++p;
      ++q;
    }
    return true;
  }

  static void append_utf8(std::string& s, uint32_t cp) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xc0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      s += static_cast<char>(0xe0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      s += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      s += static_cast<char>(0xf0 | (cp >> 18));
      s += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      s += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  bool hex4(uint32_t& out) {
    if (end - p < 4) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      char c = *p++;
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<uint32_t>(c - 'A' + 10);
      else return fail("bad hex digit in \\u escape");
    }
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    while (p < end) {
      unsigned char c = static_cast<unsigned char>(*p);
      if (c == '"') {
        ++p;
        return true;
      }
      if (c == '\\') {
        ++p;
        if (p >= end) return fail("truncated escape");
        char e = *p++;
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
            uint32_t cp;
            if (!hex4(cp)) return false;
            if (cp >= 0xd800 && cp <= 0xdbff) {  // high surrogate: need the pair
              if (end - p < 6 || p[0] != '\\' || p[1] != 'u')
                return fail("unpaired surrogate in \\u escape");
              p += 2;
              uint32_t lo;
              if (!hex4(lo)) return false;
              if (lo < 0xdc00 || lo > 0xdfff) return fail("bad low surrogate in \\u escape");
              cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
            } else if (cp >= 0xdc00 && cp <= 0xdfff) {
              return fail("unpaired surrogate in \\u escape");
            }
            append_utf8(out, cp);
            break;
          }
          default: return fail("unknown escape");
        }
      } else if (c < 0x20) {
        return fail("raw control character in string");
      } else {
        out += static_cast<char>(c);  // UTF-8 passthrough
        ++p;
      }
    }
    return fail("unterminated string");
  }

  // RFC 8259 number grammar, enforced here rather than delegated to
  // strtod (which would also accept "01", "1.", ".5", ...):
  //   -? (0 | [1-9][0-9]*) ('.' [0-9]+)? ([eE] [+-]? [0-9]+)?
  bool parse_number(value& out) {
    const char* start = p;
    consume('-');
    size_t int_digits = 0;
    while (p < end && *p >= '0' && *p <= '9') {
      ++p;
      ++int_digits;
    }
    if (int_digits == 0) return fail("bad number");
    if (int_digits > 1 && start[*start == '-' ? 1 : 0] == '0')
      return fail("bad number (leading zero)");
    bool integral = true;
    if (consume('.')) {
      integral = false;
      size_t frac_digits = 0;
      while (p < end && *p >= '0' && *p <= '9') {
        ++p;
        ++frac_digits;
      }
      if (frac_digits == 0) return fail("bad number (no digits after '.')");
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
      integral = false;
      ++p;
      if (p < end && (*p == '+' || *p == '-')) ++p;
      size_t exp_digits = 0;
      while (p < end && *p >= '0' && *p <= '9') {
        ++p;
        ++exp_digits;
      }
      if (exp_digits == 0) return fail("bad number (no exponent digits)");
    }
    std::string tok(start, static_cast<size_t>(p - start));
    errno = 0;
    if (integral) {
      char* tail = nullptr;
      long long ll = std::strtoll(tok.c_str(), &tail, 10);
      if (errno == 0 && tail != nullptr && *tail == '\0') {
        out = value(value::storage(static_cast<int64_t>(ll)));
        return true;
      }
      if (*start != '-') {
        // [2^63, 2^64): the top half of the 64-bit seed space — keep it
        // exact instead of rounding through double.
        errno = 0;
        tail = nullptr;
        unsigned long long ull = std::strtoull(tok.c_str(), &tail, 10);
        if (errno == 0 && tail != nullptr && *tail == '\0') {
          out = value(value::storage(static_cast<uint64_t>(ull)));
          return true;
        }
      }
      errno = 0;  // out of uint64 range too: fall through to double
    }
    char* tail = nullptr;
    double d = std::strtod(tok.c_str(), &tail);
    if (tail == nullptr || *tail != '\0') return fail("bad number");
    out = value(value::storage(d));
    return true;
  }

  bool parse_value(value& out, int depth) {
    if (depth > 64) return fail("nesting too deep");
    skip_ws();
    if (p >= end) return fail("unexpected end of input");
    char c = *p;
    if (c == 'n') return literal("null") ? (out = value(), true) : fail("bad literal");
    if (c == 't') return literal("true") ? (out = value(value::storage(true)), true)
                                         : fail("bad literal");
    if (c == 'f') return literal("false") ? (out = value(value::storage(false)), true)
                                          : fail("bad literal");
    if (c == '"') {
      std::string s;
      if (!parse_string(s)) return false;
      out = value(value::storage(std::move(s)));
      return true;
    }
    if (c == '[') {
      ++p;
      value::array arr;
      skip_ws();
      if (consume(']')) {
        out = value(value::storage(std::move(arr)));
        return true;
      }
      for (;;) {
        value v;
        if (!parse_value(v, depth + 1)) return false;
        arr.push_back(std::move(v));
        skip_ws();
        if (consume(']')) break;
        if (!consume(',')) return fail("expected ',' or ']'");
      }
      out = value(value::storage(std::move(arr)));
      return true;
    }
    if (c == '{') {
      ++p;
      value::object obj;
      skip_ws();
      if (consume('}')) {
        out = value(value::storage(std::move(obj)));
        return true;
      }
      for (;;) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (!consume(':')) return fail("expected ':'");
        value v;
        if (!parse_value(v, depth + 1)) return false;
        obj.emplace_back(std::move(key), std::move(v));
        skip_ws();
        if (consume('}')) break;
        if (!consume(',')) return fail("expected ',' or '}'");
      }
      out = value(value::storage(std::move(obj)));
      return true;
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number(out);
    return fail("unexpected character");
  }
};

}  // namespace detail

// Parse one JSON document (leading/trailing whitespace allowed, anything
// else after the document is an error). Returns false and fills *err (when
// given) on malformed input.
inline bool parse(std::string_view text, value& out, std::string* err = nullptr) {
  detail::parser ps{text.data(), text.data() + text.size(), {}, text.data()};
  if (!ps.parse_value(out, 0)) {
    if (err != nullptr) *err = ps.err;
    return false;
  }
  ps.skip_ws();
  if (ps.p != ps.end) {
    if (err != nullptr) *err = "trailing characters after JSON document";
    return false;
  }
  return true;
}

}  // namespace pp::json
