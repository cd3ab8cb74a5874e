// Minimal JSON reader shared by report/profile tests.
//
// Just enough of a recursive-descent parser to round-trip the repo's
// hand-rolled JSON emitters (sim::to_json, analysis::to_json,
// profile::profile_to_json, profile::chrome_trace_json) and pin their
// schemas; rejects anything malformed instead of guessing.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/types.hpp"

namespace kconv::testsupport {

struct JsonValue {
  enum class Type { Object, Array, String, Number, Bool, Null };
  Type type = Type::Null;
  double number = 0.0;
  bool boolean = false;
  std::string str;
  std::map<std::string, std::shared_ptr<JsonValue>> object;
  std::vector<std::shared_ptr<JsonValue>> array;
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  std::shared_ptr<JsonValue> parse() {
    auto v = value();
    skip_ws();
    KCONV_CHECK(pos_ == text_.size(), "trailing characters after JSON value");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\t' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    skip_ws();
    KCONV_CHECK(pos_ < text_.size(), "unexpected end of JSON");
    return text_[pos_];
  }

  void expect(char c) {
    KCONV_CHECK(peek() == c, strf("expected '%c' at offset %zu", c, pos_));
    ++pos_;
  }

  bool consume(const char* lit) {
    skip_ws();
    const size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  std::string string_lit() {
    expect('"');
    std::string out;
    while (true) {
      KCONV_CHECK(pos_ < text_.size(), "unterminated JSON string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      KCONV_CHECK(pos_ < text_.size(), "unterminated JSON escape");
      switch (const char e = text_[pos_++]) {
        case '"':
        case '\\':
        case '/': out += e; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          KCONV_CHECK(pos_ + 4 <= text_.size(), "truncated JSON \\u escape");
          const unsigned long code =
              std::stoul(text_.substr(pos_, 4), nullptr, 16);
          KCONV_CHECK(code < 0x80, "non-ASCII \\u escapes are not supported");
          out += static_cast<char>(code);
          pos_ += 4;
          break;
        }
        default: KCONV_CHECK(false, "invalid JSON escape");
      }
    }
  }

  std::shared_ptr<JsonValue> value() {
    auto v = std::make_shared<JsonValue>();
    const char c = peek();
    if (c == '{') {
      v->type = JsonValue::Type::Object;
      expect('{');
      if (peek() != '}') {
        do {
          std::string key = string_lit();
          expect(':');
          KCONV_CHECK(v->object.emplace(std::move(key), value()).second,
                      "duplicate JSON key");
        } while (consume(","));
      }
      expect('}');
    } else if (c == '[') {
      v->type = JsonValue::Type::Array;
      expect('[');
      if (peek() != ']') {
        do {
          v->array.push_back(value());
        } while (consume(","));
      }
      expect(']');
    } else if (c == '"') {
      v->type = JsonValue::Type::String;
      v->str = string_lit();
    } else if (consume("true")) {
      v->type = JsonValue::Type::Bool;
      v->boolean = true;
    } else if (consume("false")) {
      v->type = JsonValue::Type::Bool;
      v->boolean = false;
    } else if (consume("null")) {
      v->type = JsonValue::Type::Null;
    } else {
      v->type = JsonValue::Type::Number;
      size_t used = 0;
      v->number = std::stod(text_.substr(pos_), &used);
      KCONV_CHECK(used > 0, "malformed JSON number");
      pos_ += used;
    }
    return v;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

inline const JsonValue& field(const JsonValue& obj, const std::string& key) {
  const auto it = obj.object.find(key);
  EXPECT_NE(it, obj.object.end()) << "missing key: " << key;
  KCONV_CHECK(it != obj.object.end(), "missing key " + key);
  return *it->second;
}

}  // namespace kconv::testsupport
