#include "obs/json.h"

#include <charconv>

namespace koptlog {

// ---------------------------------------------------------------------------
// JsonLexer
// ---------------------------------------------------------------------------

bool JsonLexer::fail(const char* what) {
  err_ = std::string(what) + " at offset " + std::to_string(pos_);
  return false;
}

bool JsonLexer::bad_separator(char close) {
  if (at_end()) return fail(close == '}' ? "unterminated object"
                                         : "unterminated array");
  return fail(close == '}' ? "expected ',' or '}'" : "expected ',' or ']'");
}

bool JsonLexer::literal(std::string_view word) {
  if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
  pos_ += word.size();
  return true;
}

bool JsonLexer::string_slow(std::string_view& out, std::string& scratch) {
  // string() found an escape or no closing quote: decode into scratch.
  if (peek() != '"') return fail("expected string");
  ++pos_;
  scratch.clear();
  while (pos_ < text_.size() && text_[pos_] != '"') {
    char c = text_[pos_++];
    if (c != '\\') {
      scratch += c;
      continue;
    }
    if (pos_ >= text_.size()) return fail("bad escape");
    char esc = text_[pos_++];
    switch (esc) {
      case '"': scratch += '"'; break;
      case '\\': scratch += '\\'; break;
      case '/': scratch += '/'; break;
      case 'n': scratch += '\n'; break;
      case 'r': scratch += '\r'; break;
      case 't': scratch += '\t'; break;
      case 'b': scratch += '\b'; break;
      case 'f': scratch += '\f'; break;
      case 'u': {
        if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return fail("bad \\u escape");
        }
        // Sufficient for this schema: control characters only.
        scratch += static_cast<char>(code & 0xff);
        break;
      }
      default:
        return fail("bad escape");
    }
  }
  if (pos_ >= text_.size()) return fail("unterminated string");
  ++pos_;  // closing quote
  out = scratch;
  return true;
}

bool JsonLexer::number_slow(bool& is_int, int64_t& value) {
  if (at_end()) return fail("unexpected end of input");
  const size_t start = pos_;
  const size_t digits_at = pos_ + (text_[pos_] == '-' ? 1 : 0);
  // from_chars converts the integer part in the same pass that finds its
  // end (it reports a value outside int64_t as out of range); the checks
  // around it hold the token to the JSON grammar.
  auto [end, ec] = std::from_chars(text_.data() + start,
                                   text_.data() + text_.size(), value);
  pos_ = static_cast<size_t>(end - text_.data());
  if (pos_ <= digits_at) {
    pos_ = digits_at;
    return fail(digits_at == start ? "expected number" : "bad number");
  }
  if (text_[digits_at] == '0' && pos_ > digits_at + 1) {
    pos_ = digits_at + 1;
    return fail("bad number");  // leading zero
  }
  is_int = ec == std::errc();
  auto digits = [&] {
    const size_t from = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
      ++pos_;
    return pos_ > from;
  };
  if (pos_ < text_.size() && text_[pos_] == '.') {
    ++pos_;
    if (!digits()) return fail("bad number");
    is_int = false;
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (!digits()) return fail("bad number");
    is_int = false;
  }
  return true;
}

bool JsonLexer::int_array_slow(int depth, int64_t* out, int want,
                               bool& shaped) {
  shaped = false;
  if (peek() != '[') return skip_value(depth);
  if (!open('[', depth)) return false;
  if (eat(']')) return true;
  int count = 0;
  bool all_int = true, more = false;
  do {
    bool is_int = false;
    int64_t v = 0;
    if (!int_value(depth + 1, v, is_int)) return false;
    if (is_int && count < want) out[count] = v;
    all_int = all_int && is_int;
    ++count;
    if (!next(']', more)) return false;
  } while (more);
  shaped = all_int && count == want;
  return true;
}

bool JsonLexer::skip_value(int depth) {
  std::string scratch;
  std::string_view s;
  bool more = false;
  switch (peek()) {
    case '{':
      if (!open('{', depth)) return false;
      if (eat('}')) return true;
      do {
        if (!string(s, scratch)) return false;
        if (!eat(':')) return fail("expected ':'");
        if (!skip_value(depth + 1)) return false;
        if (!next('}', more)) return false;
      } while (more);
      return true;
    case '[':
      if (!open('[', depth)) return false;
      if (eat(']')) return true;
      do {
        if (!skip_value(depth + 1) || !next(']', more)) return false;
      } while (more);
      return true;
    case '"':
      return string(s, scratch);
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default: {
      bool is_int = false;
      int64_t v = 0;
      return number(is_int, v);
    }
  }
}

// ---------------------------------------------------------------------------
// JsonParser
// ---------------------------------------------------------------------------

bool JsonParser::parse(JsonValue& out, std::string& err) {
  if (!value(out, 0)) {
    err = lex_.error();
    return false;
  }
  if (!lex_.at_end()) {
    err = "trailing characters after JSON value";
    return false;
  }
  return true;
}

bool JsonParser::value(JsonValue& out, int depth) {
  std::string_view s;
  bool more = false;
  switch (lex_.peek()) {
    case '{':
      out.type = JsonValue::Type::kObj;
      if (!lex_.open('{', depth)) return false;
      if (lex_.eat('}')) return true;
      do {
        if (!lex_.string(s, scratch_)) return false;
        std::string key(s);
        if (!lex_.eat(':')) return lex_.fail("expected ':'");
        JsonValue v;
        if (!value(v, depth + 1)) return false;
        out.obj.emplace_back(std::move(key), std::move(v));
        if (!lex_.next('}', more)) return false;
      } while (more);
      return true;
    case '[':
      out.type = JsonValue::Type::kArr;
      if (!lex_.open('[', depth)) return false;
      if (lex_.eat(']')) return true;
      do {
        JsonValue v;
        if (!value(v, depth + 1)) return false;
        out.arr.push_back(std::move(v));
        if (!lex_.next(']', more)) return false;
      } while (more);
      return true;
    case '"':
      out.type = JsonValue::Type::kStr;
      if (!lex_.string(s, scratch_)) return false;
      out.str.assign(s);
      return true;
    case 't':
      out.type = JsonValue::Type::kBool;
      out.b = true;
      return lex_.literal("true");
    case 'f':
      out.type = JsonValue::Type::kBool;
      return lex_.literal("false");
    case 'n':
      return lex_.literal("null");
    default:
      out.type = JsonValue::Type::kNum;
      return lex_.number(out.is_int, out.num);
  }
}

bool json_as_int64(const JsonValue* v, int64_t& out) {
  if (!v || v->type != JsonValue::Type::kNum || !v->is_int) return false;
  out = v->num;
  return true;
}

}  // namespace koptlog
