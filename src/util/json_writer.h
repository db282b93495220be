// Minimal streaming JSON writer — the one implementation behind every
// machine-readable report in the repository.
//
// Three places grew hand-rolled JSON emission independently (the
// throughput bench's --json report, the fabric CLI's verify health
// reports, and ad-hoc escaping helpers); each re-solved comma
// placement, string escaping and double formatting slightly
// differently.  This header is that logic once: an append-only writer
// over a caller-owned std::string that tracks nesting, inserts commas,
// escapes strings per RFC 8259 (the subset our payloads need: quote,
// backslash, control characters), and formats doubles round-trippably.
//
// It is deliberately NOT a JSON document model — no parsing, no DOM,
// no allocation beyond the output string — because every producer here
// streams a report it already holds in struct form.
//
//   util::json_writer w;
//   w.begin_object();
//   w.member("kind", "store");
//   w.member("traces", reader.traces());
//   w.key("damage");
//   w.begin_array();
//   for (...) { w.begin_object(); ... w.end_object(); }
//   w.end_array();
//   w.end_object();
//   std::fputs(w.str().c_str(), stdout);
#ifndef USCA_UTIL_JSON_WRITER_H
#define USCA_UTIL_JSON_WRITER_H

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace usca::util {

/// Escapes `text` into a JSON string body (no surrounding quotes).
inline void json_escape_into(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
    case '"':
      out += "\\\"";
      break;
    case '\\':
      out += "\\\\";
      break;
    case '\n':
      out += "\\n";
      break;
    case '\r':
      out += "\\r";
      break;
    case '\t':
      out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += buf;
      } else {
        out += c;
      }
    }
  }
}

inline std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  json_escape_into(out, text);
  return out;
}

class json_writer {
public:
  json_writer() { out_.reserve(256); }

  // ------------------------------------------------------- structure
  json_writer& begin_object() {
    separate();
    out_ += '{';
    fresh_ = true;
    return *this;
  }
  json_writer& end_object() {
    out_ += '}';
    fresh_ = false;
    return *this;
  }
  json_writer& begin_array() {
    separate();
    out_ += '[';
    fresh_ = true;
    return *this;
  }
  json_writer& end_array() {
    out_ += ']';
    fresh_ = false;
    return *this;
  }

  /// Object key; the next value/begin_* call is its value.
  json_writer& key(std::string_view name) {
    separate();
    out_ += '"';
    json_escape_into(out_, name);
    out_ += "\":";
    after_key_ = true;
    return *this;
  }

  // ---------------------------------------------------------- values
  json_writer& value(std::string_view text) {
    separate();
    out_ += '"';
    json_escape_into(out_, text);
    out_ += '"';
    return *this;
  }
  json_writer& value(const char* text) {
    return value(std::string_view(text));
  }
  json_writer& value(bool b) {
    separate();
    out_ += b ? "true" : "false";
    return *this;
  }
  json_writer& value(std::uint64_t v) { return number(v); }
  json_writer& value(std::int64_t v) { return number(v); }
  json_writer& value(unsigned v) { return number(std::uint64_t{v}); }
  json_writer& value(int v) { return number(std::int64_t{v}); }
  // size_t == uint64_t on this platform's LP64 ABI; keep the overload
  // set unambiguous by funnelling through uint64_t explicitly at call
  // sites that pass other unsigned widths.
  json_writer& value(double v) {
    separate();
    char buf[40];
    // %.17g round-trips any double but litters short values with
    // digits; to_chars shortest form is exact AND minimal.
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    // Pointer-and-length append: the iterator-pair overload trips GCC 12's
    // -Wrestrict false positive.
    out_.append(buf, ec == std::errc() ? static_cast<std::size_t>(end - buf)
                                       : std::size_t{0});
    return *this;
  }
  /// Fixed-precision double for human-tuned reports (%.1f style).
  json_writer& value_fixed(double v, int precision) {
    separate();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
    out_ += buf;
    return *this;
  }
  json_writer& null() {
    separate();
    out_ += "null";
    return *this;
  }
  /// Pre-rendered JSON (e.g. a nested writer's str()) spliced in place.
  json_writer& raw(std::string_view json) {
    separate();
    out_ += json;
    return *this;
  }

  // ---------------------------------------------------- key + value
  template <typename V> json_writer& member(std::string_view name, V&& v) {
    key(name);
    return value(std::forward<V>(v));
  }
  json_writer& member_fixed(std::string_view name, double v, int precision) {
    key(name);
    return value_fixed(v, precision);
  }

  const std::string& str() const noexcept { return out_; }
  /// str() + '\n' — the JSON-lines framing every sink here appends.
  std::string line() const { return out_ + "\n"; }
  void clear() {
    out_.clear();
    fresh_ = true;
    after_key_ = false;
  }

private:
  template <typename N> json_writer& number(N v) {
    separate();
    char buf[24];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    // Pointer-and-length append: the iterator-pair overload trips GCC 12's
    // -Wrestrict false positive.
    out_.append(buf, ec == std::errc() ? static_cast<std::size_t>(end - buf)
                                       : std::size_t{0});
    return *this;
  }

  /// Comma bookkeeping: a value directly after '{', '[' or a key needs
  /// no comma; every later sibling does.
  void separate() {
    if (after_key_) {
      after_key_ = false;
      fresh_ = false;
      return;
    }
    if (!fresh_ && !out_.empty()) {
      out_ += ',';
    }
    fresh_ = false;
  }

  std::string out_;
  bool fresh_ = true;     ///< next element is the first at this level
  bool after_key_ = false;
};

} // namespace usca::util

#endif // USCA_UTIL_JSON_WRITER_H
