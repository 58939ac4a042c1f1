#include "src/obs/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "src/common/check.hpp"

namespace dejavu::obs {

namespace {

constexpr size_t kMaxEscape = 6;  // \u00XX

// Writes `s` JSON-escaped at `p`, which has room for kMaxEscape bytes per
// byte of `s`, and returns the end. Control bytes without a short form
// become \u00XX; bytes >= 0x80 pass through (the input is taken to be
// UTF-8).
char* write_escaped(char* p, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (char ch : s) {
    unsigned char c = static_cast<unsigned char>(ch);
    if (c >= 0x20 && c != '"' && c != '\\') {
      *p++ = ch;
      continue;
    }
    *p++ = '\\';
    switch (c) {
      case '"': *p++ = '"'; break;
      case '\\': *p++ = '\\'; break;
      case '\n': *p++ = 'n'; break;
      case '\r': *p++ = 'r'; break;
      case '\t': *p++ = 't'; break;
      default:
        p = std::copy_n("u00", 3, p);
        *p++ = kHex[c >> 4];
        *p++ = kHex[c & 15];
    }
  }
  return p;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out(s.size() * kMaxEscape, '\0');
  out.resize(size_t(write_escaped(out.data(), s) - out.data()));
  return out;
}

// ---------------------------------------------------------------- writer

void JsonWriter::grow(size_t n) {
  // Take the whole reserved capacity first, then double.
  out_.resize(std::max({size_ + n, out_.capacity(), out_.size() * 2,
                        size_t(256)}));
}

void JsonWriter::append(std::string_view s) {
  commit(std::copy(s.begin(), s.end(), room(s.size())));
}

void JsonWriter::push(Ctx c) { stack_.push_back(Frame{c, false}); }

void JsonWriter::pop(Ctx c) {
  DV_CHECK_MSG(stack_.size() > 1 && stack_.back().ctx == c,
               "JsonWriter: unbalanced end");
  DV_CHECK_MSG(!key_pending_, "JsonWriter: dangling key");
  stack_.pop_back();
  if (stack_.back().ctx == Ctx::kTop) {
    done_ = true;
    out_.resize(size_);  // drop the unused room; capacity is kept
  }
}

void JsonWriter::append_escaped(bool comma, std::string_view s, bool colon) {
  char* p = room(s.size() * kMaxEscape + 4);
  if (comma) *p++ = ',';
  *p++ = '"';
  p = write_escaped(p, s);
  *p++ = '"';
  if (colon) *p++ = ':';
  commit(p);
}

JsonWriter& JsonWriter::begin_object() {
  append(before_value() ? ",{" : "{");
  push(Ctx::kObject);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  append("}");
  pop(Ctx::kObject);
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  append(before_value() ? ",[" : "[");
  push(Ctx::kArray);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  append("]");
  pop(Ctx::kArray);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  if (before_value()) append(",");
  if (!std::isfinite(v)) {
    append("null");  // JSON has no Inf/NaN
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  append(buf);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  if (before_value()) append(",");
  append(v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  if (before_value()) append(",");
  append("null");
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  if (before_value()) append(",");
  append(json);
  return *this;
}

const std::string& JsonWriter::str() const {
  DV_CHECK_MSG(done_, "JsonWriter: document incomplete");
  return out_;
}

std::string JsonWriter::take() {
  DV_CHECK_MSG(done_, "JsonWriter: document incomplete");
  return std::move(out_);
}

// ---------------------------------------------------------------- parser

const JsonValue* JsonValue::find(const std::string& k) const {
  if (type != Type::kObject) return nullptr;
  const JsonValue* hit = nullptr;
  for (const auto& [key, v] : members) {
    if (key == k) hit = &v;  // last duplicate wins
  }
  return hit;
}

const JsonValue& JsonValue::at(const std::string& k) const {
  const JsonValue* v = find(k);
  if (v == nullptr) throw VmError("json: missing key \"" + k + "\"");
  return *v;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& s) : s_(s) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw VmError("json: " + why + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      pos_++;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    pos_++;
  }

  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      pos_++;
      return true;
    }
    return false;
  }

  bool consume_word(const char* w) {
    size_t n = std::char_traits<char>::length(w);
    if (s_.compare(pos_, n, w) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  std::string parse_string_raw() {
    expect('"');
    std::string out;
    while (true) {
      char c = peek();
      pos_++;
      if (c == '"') return out;
      if (c == '\\') {
        char e = peek();
        pos_++;
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
            if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
              char h = s_[pos_++];
              v <<= 4;
              if (h >= '0' && h <= '9') v |= unsigned(h - '0');
              else if (h >= 'a' && h <= 'f') v |= unsigned(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') v |= unsigned(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            // Our writer only emits \u00XX; decode BMP code points as UTF-8.
            if (v < 0x80) {
              out += char(v);
            } else if (v < 0x800) {
              out += char(0xC0 | (v >> 6));
              out += char(0x80 | (v & 0x3F));
            } else {
              out += char(0xE0 | (v >> 12));
              out += char(0x80 | ((v >> 6) & 0x3F));
              out += char(0x80 | (v & 0x3F));
            }
            break;
          }
          default: fail("bad escape");
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue parse_value() {
    skip_ws();
    char c = peek();
    JsonValue v;
    if (c == '{') {
      pos_++;
      v.type = JsonValue::Type::kObject;
      skip_ws();
      if (consume('}')) return v;
      while (true) {
        skip_ws();
        std::string key = parse_string_raw();
        skip_ws();
        expect(':');
        v.members.emplace_back(std::move(key), parse_value());
        skip_ws();
        if (consume(',')) continue;
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      pos_++;
      v.type = JsonValue::Type::kArray;
      skip_ws();
      if (consume(']')) return v;
      while (true) {
        v.items.push_back(parse_value());
        skip_ws();
        if (consume(',')) continue;
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.type = JsonValue::Type::kString;
      v.string = parse_string_raw();
      return v;
    }
    if (consume_word("true")) {
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_word("false")) {
      v.type = JsonValue::Type::kBool;
      v.boolean = false;
      return v;
    }
    if (consume_word("null")) return v;
    // number
    size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      pos_++;
    if (pos_ == start) fail("unexpected character");
    try {
      v.number = std::stod(s_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number");
    }
    v.type = JsonValue::Type::kNumber;
    return v;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace dejavu::obs
