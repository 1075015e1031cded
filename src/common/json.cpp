#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace raincore {

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double n) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.num_ = n;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

bool JsonValue::read_uint(std::uint64_t max, std::uint64_t& out) const {
  if (type_ != Type::kNumber) return false;
  // 2^64 is exact as a double; nothing at or above it converts.
  if (!(num_ >= 0.0) || num_ >= 0x1p64 || num_ != std::floor(num_)) {
    return false;
  }
  const auto v = static_cast<std::uint64_t>(num_);
  if (v > max) return false;
  out = v;
  return true;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::push_back(JsonValue v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  arr_.push_back(std::move(v));
}

void JsonValue::set(const std::string& key, JsonValue v) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  obj_.emplace_back(key, std::move(v));
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(double n, std::string& out) {
  if (!std::isfinite(n)) {
    out += "null";  // JSON has no Inf/NaN; metrics never produce them
    return;
  }
  char buf[40];
  // Integral values (counters, counts) print without a fraction so they
  // survive textual round trips bit-exactly.
  if (n == std::floor(n) && std::fabs(n) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", n);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", n);
  }
  out += buf;
}

void dump_value(const JsonValue& v, std::string& out) {
  switch (v.type()) {
    case JsonValue::Type::kNull:
      out += "null";
      break;
    case JsonValue::Type::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case JsonValue::Type::kNumber:
      dump_number(v.as_number(), out);
      break;
    case JsonValue::Type::kString:
      dump_string(v.as_string(), out);
      break;
    case JsonValue::Type::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : v.items()) {
        if (!first) out += ',';
        first = false;
        dump_value(item, out);
      }
      out += ']';
      break;
    }
    case JsonValue::Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, item] : v.members()) {
        if (!first) out += ',';
        first = false;
        dump_string(k, out);
        out += ':';
        dump_value(item, out);
      }
      out += '}';
      break;
    }
  }
}

class Parser {
 public:
  Parser(const char* p, const char* end) : p_(p), end_(end) {}

  bool parse_document(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    return p_ == end_;
  }

 private:
  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  bool literal(const char* word) {
    const char* q = p_;
    for (; *word; ++word, ++q) {
      if (q == end_ || *q != *word) return false;
    }
    p_ = q;
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (depth_ > 64) return false;  // bound recursion against hostile input
    if (p_ == end_) return false;
    switch (*p_) {
      case 'n': return literal("null") && (out = JsonValue::null(), true);
      case 't': return literal("true") && (out = JsonValue::boolean(true), true);
      case 'f':
        return literal("false") && (out = JsonValue::boolean(false), true);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = JsonValue::string(std::move(s));
        return true;
      }
      case '[': return parse_array(out);
      case '{': return parse_object(out);
      default: return parse_number(out);
    }
  }

  bool parse_string(std::string& out) {
    if (p_ == end_ || *p_ != '"') return false;
    ++p_;
    out.clear();
    while (p_ != end_ && *p_ != '"') {
      char c = *p_++;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (p_ == end_) return false;
      char esc = *p_++;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (end_ - p_ < 4) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = *p_++;
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // UTF-8 encode (no surrogate-pair handling; the emitter never
          // produces escapes above the BMP basic range).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return false;
      }
    }
    if (p_ == end_) return false;
    ++p_;  // closing quote
    return true;
  }

  bool parse_number(JsonValue& out) {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool any = false;
    while (p_ != end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                          *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                          *p_ == '-' || *p_ == '+')) {
      any = true;
      ++p_;
    }
    if (!any) return false;
    std::string text(start, p_);
    char* parse_end = nullptr;
    double v = std::strtod(text.c_str(), &parse_end);
    if (parse_end != text.c_str() + text.size()) return false;
    out = JsonValue::number(v);
    return true;
  }

  bool parse_array(JsonValue& out) {
    ++p_;  // '['
    out = JsonValue::array();
    ++depth_;
    skip_ws();
    if (p_ != end_ && *p_ == ']') {
      ++p_;
      --depth_;
      return true;
    }
    while (true) {
      JsonValue item;
      skip_ws();
      if (!parse_value(item)) return false;
      out.push_back(std::move(item));
      skip_ws();
      if (p_ == end_) return false;
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == ']') {
        ++p_;
        --depth_;
        return true;
      }
      return false;
    }
  }

  bool parse_object(JsonValue& out) {
    ++p_;  // '{'
    out = JsonValue::object();
    ++depth_;
    skip_ws();
    if (p_ != end_ && *p_ == '}') {
      ++p_;
      --depth_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (p_ == end_ || *p_ != ':') return false;
      ++p_;
      skip_ws();
      JsonValue item;
      if (!parse_value(item)) return false;
      out.set(key, std::move(item));
      skip_ws();
      if (p_ == end_) return false;
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == '}') {
        ++p_;
        --depth_;
        return true;
      }
      return false;
    }
  }

  const char* p_;
  const char* end_;
  int depth_ = 0;
};

}  // namespace

std::string JsonValue::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

bool JsonValue::parse(const std::string& text, JsonValue& out) {
  Parser p(text.data(), text.data() + text.size());
  JsonValue v;
  if (!p.parse_document(v)) return false;
  out = std::move(v);
  return true;
}

}  // namespace raincore
