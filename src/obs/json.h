// Minimal JSON for the repo's line-oriented formats: an allocation-free
// lexer (JsonLexer) and, on top of it, a small value tree (JsonValue,
// JsonParser). The trace reader (obs/trace_io.cpp) decodes its schema
// straight off the lexer; the health sidecar (obs/health/health_io.cpp)
// uses the tree. Not a general-purpose JSON library (\u escapes only cover
// the control characters our writers emit).
//
// Both readers share the lexer's rules:
//  * numbers follow the strict JSON grammar, -?(0|[1-9][0-9]*)(.[0-9]+)?
//    ([eE][+-]?[0-9]+)?, and the whole token is consumed (no "+5", "1-2",
//    "1e", "01");
//  * an integer is a number token with no fraction or exponent whose value
//    fits int64_t; anything else ("1.0", "1e3", "9223372036854775808") is a
//    valid number but not an integer;
//  * containers nest at most kJsonMaxDepth deep; deeper input is rejected
//    with "nesting too deep at offset N" instead of exhausting the stack.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace koptlog {

/// Deepest container nesting either reader accepts (the outermost object of
/// a line counts as 1).
inline constexpr int kJsonMaxDepth = 64;

/// Cursor over one JSON text. Every scan either consumes a well-formed token
/// or returns false with error() set to "<what> at offset N".
class JsonLexer {
 public:
  explicit JsonLexer(std::string_view text) : text_(text) {}

  /// Skip whitespace and return the next byte without consuming it ('\0'
  /// at end of input).
  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  /// Skip whitespace; consume `c` if it is next.
  bool eat(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  /// True when only whitespace remains.
  bool at_end() {
    skip_ws();
    return pos_ == text_.size();
  }
  /// Consume the opening bracket of a container at nesting `depth` (the
  /// number of containers already open), enforcing kJsonMaxDepth.
  bool open(char bracket, int depth) {
    if (peek() != bracket) return fail("expected container");
    if (depth >= kJsonMaxDepth) return fail("nesting too deep");
    ++pos_;
    return true;
  }
  /// After a container element: consume ',' (returns true, `more` set) or
  /// the closing bracket (returns true, `more` cleared).
  bool next(char close, bool& more) {
    more = eat(',');
    return more || eat(close) || bad_separator(close);
  }

  /// A string. `out` views the text when the string has no escapes, else
  /// the decoded bytes in `scratch`.
  bool string(std::string_view& out, std::string& scratch) {
    if (peek() == '"') {
      for (size_t i = pos_ + 1; i < text_.size(); ++i) {
        if (text_[i] == '\\') break;
        if (text_[i] == '"') {
          out = text_.substr(pos_ + 1, i - pos_ - 1);
          pos_ = i + 1;
          return true;
        }
      }
    }
    return string_slow(out, scratch);
  }
  /// A number; when `is_int`, `value` holds it exactly.
  bool number(bool& is_int, int64_t& value) {
    skip_ws();
    const char* data = text_.data();
    if (const char* stop =
            short_int(data + pos_, data + text_.size(), value)) {
      is_int = true;
      pos_ = static_cast<size_t>(stop - data);
      return true;
    }
    return number_slow(is_int, value);
  }
  /// A value expected to be an integer, at nesting `depth` (as for
  /// open()); `is_int` says whether it was, and if so `value` holds it. Any
  /// other value is validated and skipped.
  bool int_value(int depth, int64_t& value, bool& is_int) {
    const char c = peek();
    if (c == '-' || (c >= '0' && c <= '9')) return number(is_int, value);
    is_int = false;
    return skip_value(depth);
  }
  /// A value expected to be an array of exactly `want` integers (at most
  /// 3), at nesting `depth` (as for open()); `shaped` says whether it was,
  /// and if so `out` holds them. Any other value is validated and skipped.
  bool int_array(int depth, int64_t* out, int want, bool& shaped) {
    // Fast path: the compact form the writers emit, "[i,i,i]" with no
    // whitespace; anything else takes int_array_slow().
    const char* data = text_.data();
    const char* end = data + text_.size();
    const char* p = data + pos_;
    if (depth < kJsonMaxDepth && p < end && *p == '[') {
      ++p;
      for (int i = 0; i < want; ++i) {
        const char* stop = short_int(p, end, out[i]);
        if (stop == nullptr || stop == end ||
            *stop != (i + 1 < want ? ',' : ']'))
          return int_array_slow(depth, out, want, shaped);
        p = stop + 1;
      }
      pos_ = static_cast<size_t>(p - data);
      shaped = true;
      return true;
    }
    return int_array_slow(depth, out, want, shaped);
  }
  /// The literal `word` (true, false, null) at the cursor.
  bool literal(std::string_view word);
  /// One value of any type, validated and skipped without allocating;
  /// `depth` as for open().
  bool skip_value(int depth);

  /// Record `what` at the current offset; always returns false.
  bool fail(const char* what);
  const std::string& error() const { return err_; }

 private:
  /// The fast path of every integer: an optional '-' and at most 18 digits
  /// (too few to overflow int64_t), with no leading zero and not followed
  /// by a digit, '.', 'e' or 'E'. Returns the end of the token, or nullptr
  /// to leave the token to the slow paths (full grammar, std::from_chars
  /// with its range check, error messages).
  static const char* short_int(const char* p, const char* end,
                               int64_t& value) {
    const bool neg = p < end && *p == '-';
    const char* digits = p + (neg ? 1 : 0);
    const char* q = digits;
    uint64_t v = 0;
    while (q < end && q - digits < 18 && static_cast<unsigned>(*q - '0') < 10)
      v = v * 10 + static_cast<unsigned>(*q++ - '0');
    if (q == digits || (*digits == '0' && q != digits + 1)) return nullptr;
    if (q < end && (static_cast<unsigned>(*q - '0') < 10 || *q == '.' ||
                    *q == 'e' || *q == 'E'))
      return nullptr;
    value = neg ? -static_cast<int64_t>(v) : static_cast<int64_t>(v);
    return q;
  }
  void skip_ws() {
    // The C locale's isspace set, spelled out so no locale can change it.
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && (c < '\t' || c > '\r')) return;
      ++pos_;
    }
  }
  bool bad_separator(char close);
  bool string_slow(std::string_view& out, std::string& scratch);
  bool number_slow(bool& is_int, int64_t& value);
  bool int_array_slow(int depth, int64_t* out, int want, bool& shaped);

  std::string_view text_;
  size_t pos_ = 0;
  std::string err_;
};

struct JsonValue {
  enum class Type { kNull, kBool, kNum, kStr, kArr, kObj };
  Type type = Type::kNull;
  bool b = false;
  /// kNum: whether the token is an integer (see the header comment) and,
  /// if so, its exact value.
  bool is_int = false;
  int64_t num = 0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  /// The first member named `key` (a duplicate key never shadows it).
  const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : lex_(text) {}

  /// Parse one complete JSON value; trailing non-whitespace is an error.
  bool parse(JsonValue& out, std::string& err);

 private:
  bool value(JsonValue& out, int depth);

  JsonLexer lex_;
  std::string scratch_;
};

/// Strict integer extraction: the value must exist and be an integer.
bool json_as_int64(const JsonValue* v, int64_t& out);

}  // namespace koptlog
