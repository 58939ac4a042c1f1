// Minimal JSON support for the observability layer.
//
// Telemetry artifacts (metric snapshots, Chrome trace_event timelines,
// bench sidecars) are emitted through JsonWriter -- a small streaming
// writer with correct string escaping and no intermediate DOM. The
// matching JsonValue parser exists for the consumers we own: the schema
// checker behind `tools/obs_schema_check` and the tests that assert the
// emitted artifacts are well-formed. Neither side aims to be a general
// JSON library; both cover exactly the JSON this repo produces.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/check.hpp"

namespace dejavu::obs {

std::string json_escape(std::string_view s);

// Streaming writer. Usage:
//   JsonWriter w;
//   w.begin_object().key("n").value(int64_t{3}).end_object();
//   w.str();
// Commas and key/value ordering are handled by the writer; emitting a
// structurally invalid document (value with no pending key inside an
// object, unbalanced end_*) throws VmError. Keys, strings and integers are
// written straight into the output buffer; no call allocates a temporary.
// The per-row calls (key, string and integer values) are defined inline
// below: an artifact of 10^5 rows makes 10^6 of them.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);
  JsonWriter& value(std::string_view v);
  // Without this overload a string literal would convert to bool.
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(int64_t v);
  JsonWriter& value(uint64_t v);
  JsonWriter& value(double v);
  JsonWriter& value(bool v);
  JsonWriter& null();
  // Splices a pre-rendered JSON document in value position (embedding one
  // artifact inside another, e.g. merged analyzer docs in a farm report).
  // The caller is responsible for `json` being well-formed.
  JsonWriter& raw(std::string_view json);

  // Convenience: key + value in one call.
  template <typename T>
  JsonWriter& kv(std::string_view k, const T& v) {
    return key(k).value(v);
  }

  // Sizes the output buffer ahead of a large document of known size.
  void reserve(size_t bytes) { out_.reserve(bytes); }
  const std::string& str() const;
  // The complete document, moved out; the writer is spent afterwards.
  std::string take();

 private:
  enum class Ctx : uint8_t { kTop, kObject, kArray };
  struct Frame {
    Ctx ctx;
    bool has_items;
  };
  // Checks that a value may go here; true when a comma must precede it.
  bool before_value();
  void push(Ctx c);
  void pop(Ctx c);
  // Append [,]"s"[:]: append_string escapes s when it has to, through
  // append_escaped.
  void append_string(bool comma, std::string_view s, bool colon);
  void append_escaped(bool comma, std::string_view s, bool colon);
  // Appends [,]v.
  template <typename Int>
  void append_int(bool comma, Int v);
  void append(std::string_view s);

  // Writing goes straight into out_: room(n) returns where the next n
  // bytes go, growing the buffer if needed, and commit() marks the end of
  // what was written. Past size_, out_ holds allocated room that is cut
  // off when the document completes.
  char* room(size_t n) {
    if (out_.size() - size_ < n) grow(n);
    return out_.data() + size_;
  }
  void commit(const char* end) { size_ = size_t(end - out_.data()); }
  void grow(size_t n);

  std::string out_;
  size_t size_ = 0;
  std::vector<Frame> stack_{Frame{Ctx::kTop, false}};
  bool key_pending_ = false;
  bool done_ = false;
};

inline bool JsonWriter::before_value() {
  DV_CHECK_MSG(!done_, "JsonWriter: document already complete");
  Frame& f = stack_.back();
  bool comma = false;
  if (f.ctx == Ctx::kObject) {
    DV_CHECK_MSG(key_pending_, "JsonWriter: object value without a key");
    key_pending_ = false;  // key() wrote the separator
  } else {
    comma = f.has_items;
  }
  f.has_items = true;
  return comma;
}

inline void JsonWriter::append_string(bool comma, std::string_view s,
                                      bool colon) {
  // Copy while checking each byte: most keys and values need no escaping,
  // and the rare one that does is written again, escaped.
  char* p = room(s.size() + 4);
  if (comma) *p++ = ',';
  *p++ = '"';
  for (char ch : s) {
    unsigned char c = static_cast<unsigned char>(ch);
    if (c < 0x20 || c == '"' || c == '\\') {
      append_escaped(comma, s, colon);
      return;
    }
    *p++ = ch;
  }
  *p++ = '"';
  if (colon) *p++ = ':';
  commit(p);
}

template <typename Int>
inline void JsonWriter::append_int(bool comma, Int v) {
  constexpr size_t kMax = 20;  // digits and sign of any 64-bit integer
  char* p = room(1 + kMax);
  if (comma) *p++ = ',';
  commit(std::to_chars(p, p + kMax, v).ptr);
}

inline JsonWriter& JsonWriter::key(std::string_view k) {
  const Frame& f = stack_.back();
  DV_CHECK_MSG(f.ctx == Ctx::kObject && !key_pending_,
               "JsonWriter: key outside an object");
  append_string(f.has_items, k, /*colon=*/true);
  key_pending_ = true;
  return *this;
}

inline JsonWriter& JsonWriter::value(std::string_view v) {
  append_string(before_value(), v, /*colon=*/false);
  return *this;
}

inline JsonWriter& JsonWriter::value(int64_t v) {
  append_int(before_value(), v);
  return *this;
}

inline JsonWriter& JsonWriter::value(uint64_t v) {
  append_int(before_value(), v);
  return *this;
}

// Parsed JSON value. Object member order is preserved (useful for golden
// comparisons); duplicate keys keep the last occurrence on lookup.
struct JsonValue {
  enum class Type : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_string() const { return type == Type::kString; }
  bool is_number() const { return type == Type::kNumber; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& k) const;
  // Object member lookup; throws VmError when absent.
  const JsonValue& at(const std::string& k) const;
};

// Parses one JSON document (trailing whitespace allowed, nothing else).
// Throws VmError with a byte offset on malformed input.
JsonValue parse_json(const std::string& text);

}  // namespace dejavu::obs
