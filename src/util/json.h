// Minimal streaming JSON writer.
//
// Shared by the CLI (`--format=json` reports) and the benchmark harness
// (schema-versioned BENCH_<figure>.json files). Emits pretty-printed,
// deterministic output; keys are written in call order. No DOM, no parsing —
// downstream consumers (scripts/bench_compare.py, jq) parse with real JSON
// libraries.

#ifndef ANYK_UTIL_JSON_H_
#define ANYK_UTIL_JSON_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/logging.h"

namespace anyk {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out, int indent_width = 2)
      : out_(out), indent_width_(indent_width) {}

  JsonWriter& BeginObject() {
    ValuePrefix();
    out_ << '{';
    stack_.push_back({/*array=*/false, /*items=*/0});
    return *this;
  }
  JsonWriter& EndObject() { return End(/*array=*/false, '}'); }

  JsonWriter& BeginArray() {
    ValuePrefix();
    out_ << '[';
    stack_.push_back({/*array=*/true, /*items=*/0});
    return *this;
  }
  JsonWriter& EndArray() { return End(/*array=*/true, ']'); }

  JsonWriter& Key(std::string_view k) {
    ANYK_CHECK(!stack_.empty() && !stack_.back().array && !have_key_)
        << "JsonWriter: Key() outside an object";
    if (stack_.back().items++ > 0) out_ << ',';
    Newline(stack_.size());
    WriteEscaped(k);
    out_ << ": ";
    have_key_ = true;
    return *this;
  }

  JsonWriter& String(std::string_view v) {
    ValuePrefix();
    WriteEscaped(v);
    return *this;
  }
  JsonWriter& Int(int64_t v) {
    ValuePrefix();
    out_ << v;
    return *this;
  }
  JsonWriter& UInt(uint64_t v) {
    ValuePrefix();
    out_ << v;
    return *this;
  }
  /// Non-finite doubles have no JSON representation; they serialize as null.
  JsonWriter& Double(double v) {
    ValuePrefix();
    if (!std::isfinite(v)) {
      out_ << "null";
      return *this;
    }
    // printf's "%.12g" bytes in the C locale, whatever the process locale.
    char buf[32];
    const char* end = std::to_chars(buf, buf + sizeof(buf), v,
                                    std::chars_format::general, 12)
                          .ptr;
    out_.write(buf, end - buf);
    return *this;
  }
  JsonWriter& Bool(bool v) {
    ValuePrefix();
    out_ << (v ? "true" : "false");
    return *this;
  }
  JsonWriter& Null() {
    ValuePrefix();
    out_ << "null";
    return *this;
  }

  // Key/value conveniences for object members.
  JsonWriter& KV(std::string_view k, std::string_view v) {
    return Key(k).String(v);
  }
  JsonWriter& KV(std::string_view k, const char* v) {
    return Key(k).String(v);
  }
  JsonWriter& KV(std::string_view k, int64_t v) { return Key(k).Int(v); }
  JsonWriter& KV(std::string_view k, uint64_t v) { return Key(k).UInt(v); }
  JsonWriter& KV(std::string_view k, double v) { return Key(k).Double(v); }
  JsonWriter& KV(std::string_view k, bool v) { return Key(k).Bool(v); }

  /// Call once after the outermost End*(): final newline, flush.
  void Finish() {
    ANYK_CHECK(stack_.empty()) << "JsonWriter: Finish() with open scopes";
    out_ << '\n';
    out_.flush();
  }

 private:
  struct Scope {
    bool array;
    size_t items;
  };

  void ValuePrefix() {
    if (stack_.empty()) return;  // top-level value
    if (stack_.back().array) {
      if (stack_.back().items++ > 0) out_ << ',';
      Newline(stack_.size());
    } else {
      ANYK_CHECK(have_key_) << "JsonWriter: object value without Key()";
      have_key_ = false;
    }
  }

  JsonWriter& End(bool array, char close) {
    ANYK_CHECK(!stack_.empty() && stack_.back().array == array && !have_key_)
        << "JsonWriter: mismatched End";
    const size_t items = stack_.back().items;
    stack_.pop_back();
    if (items > 0) Newline(stack_.size() + 1, /*close=*/true);
    out_ << close;
    return *this;
  }

  void Newline(size_t depth, bool close = false) {
    out_ << '\n';
    const size_t level = close ? depth - 1 : depth;
    for (size_t i = 0; i < level * indent_width_; ++i) out_ << ' ';
  }

  void WriteEscaped(std::string_view s) {
    out_ << '"';
    for (char c : s) {
      switch (c) {
        case '"': out_ << "\\\""; break;
        case '\\': out_ << "\\\\"; break;
        case '\b': out_ << "\\b"; break;
        case '\f': out_ << "\\f"; break;
        case '\n': out_ << "\\n"; break;
        case '\r': out_ << "\\r"; break;
        case '\t': out_ << "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ << buf;
          } else {
            out_ << c;
          }
      }
    }
    out_ << '"';
  }

  std::ostream& out_;
  size_t indent_width_;
  std::vector<Scope> stack_;
  bool have_key_ = false;
};

}  // namespace anyk

#endif  // ANYK_UTIL_JSON_H_
