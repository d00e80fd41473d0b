// Test helper: a minimal strict JSON syntax validator.
//
// The repo's exporters emit JSON by hand (no third-party JSON dependency is
// allowed), so tests validate the output with this equally dependency-free
// recursive-descent checker. It verifies syntax only — objects, arrays,
// strings with escapes, numbers, true/false/null, and that the whole input
// is consumed — which is exactly what "loads in Perfetto / python json"
// requires.
#pragma once

#include <cctype>
#include <string>
#include <string_view>

namespace rloop::testing {

namespace json_detail {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error{};

  bool fail(const std::string& message) {
    if (error.empty()) {
      error = message + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool eat(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) {
      return fail("bad literal");
    }
    pos += word.size();
    return true;
  }

  bool string() {
    if (!eat('"')) return fail("expected string");
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c == '\\') {
        ++pos;
        if (pos >= text.size()) return fail("truncated escape");
        const char e = text[pos];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos + i >= text.size() ||
                !std::isxdigit(static_cast<unsigned char>(text[pos + i]))) {
              return fail("bad \\u escape");
            }
          }
          pos += 4;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                   e != 'n' && e != 'r' && e != 't') {
          return fail("bad escape character");
        }
      }
      ++pos;
    }
    return fail("unterminated string");
  }

  bool number() {
    const std::size_t start = pos;
    eat('-');
    if (eat('0')) {
      // no leading zeros
    } else if (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos]))) {
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      }
    } else {
      return fail("expected digit");
    }
    if (eat('.')) {
      if (pos >= text.size() ||
          !std::isdigit(static_cast<unsigned char>(text[pos]))) {
        return fail("expected fraction digit");
      }
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      }
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (pos >= text.size() ||
          !std::isdigit(static_cast<unsigned char>(text[pos]))) {
        return fail("expected exponent digit");
      }
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      }
    }
    return pos > start;
  }

  bool value(int depth) {
    if (depth > 64) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("expected value");
    switch (text[pos]) {
      case '{': {
        ++pos;
        skip_ws();
        if (eat('}')) return true;
        for (;;) {
          skip_ws();
          if (!string()) return false;
          skip_ws();
          if (!eat(':')) return fail("expected ':'");
          if (!value(depth + 1)) return false;
          skip_ws();
          if (eat(',')) continue;
          if (eat('}')) return true;
          return fail("expected ',' or '}'");
        }
      }
      case '[': {
        ++pos;
        skip_ws();
        if (eat(']')) return true;
        for (;;) {
          if (!value(depth + 1)) return false;
          skip_ws();
          if (eat(',')) continue;
          if (eat(']')) return true;
          return fail("expected ',' or ']'");
        }
      }
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }
};

}  // namespace json_detail

// True when `text` is one complete, syntactically valid JSON value. On
// failure, `*error` (optional) receives a short description with the offset.
inline bool is_valid_json(std::string_view text, std::string* error = nullptr) {
  json_detail::Parser p{text};
  bool ok = p.value(0);
  if (ok) {
    p.skip_ws();
    if (p.pos != p.text.size()) {
      ok = p.fail("trailing content");
    }
  }
  if (!ok && error) *error = p.error;
  return ok;
}

}  // namespace rloop::testing
