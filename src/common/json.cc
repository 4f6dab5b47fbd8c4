#include "common/json.h"

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace prox {

void JsonValue::Set(std::string key, JsonValue value) {
  auto& members = std::get<ObjectStorage>(repr_);
  for (Member& member : members) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  members.emplace_back(std::move(key), std::move(value));
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const Member& member : std::get<ObjectStorage>(repr_)) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

size_t JsonValue::size() const {
  if (is_array()) return std::get<ArrayStorage>(repr_).size();
  if (is_object()) return std::get<ObjectStorage>(repr_).size();
  return 0;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

namespace {

/// Significant digits of a `%g` rendering: its mantissa digits without
/// leading or trailing zeros (1 for zero).
int SignificantDigits(const char* text) {
  int first = -1;
  int last = -1;
  int n = 0;
  for (const char* c = text; *c != '\0' && *c != 'e'; ++c) {
    if (*c < '0' || *c > '9') continue;
    if (*c != '0') {
      if (first < 0) first = n;
      last = n;
    }
    ++n;
  }
  return first < 0 ? 1 : last - first + 1;
}

}  // namespace

std::string ShortestDouble(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  auto round_trips = [&](int precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    return std::strtod(buf, nullptr) == value;
  };
  // The shortest precision whose decimal rendering parses back to the
  // same bits; 17 significant digits always round-trip (IEEE 754 double).
  // The search skips the precisions that cannot round-trip. A normal
  // double that some precision p <= 15 (DBL_DIG) round-trips is the double
  // nearest a decimal of at most p digits, which `%.15g` renders back
  // exactly: the shortest precision is that rendering's significant digit
  // count. When `%.15g` does not round-trip, no precision below 16 does.
  // Subnormals and zero search from 1.
  int start = 1;
  if (std::fabs(value) >= DBL_MIN) {
    start = round_trips(15) ? SignificantDigits(buf) : 16;
  }
  for (int precision = start; precision <= 17; ++precision) {
    if (round_trips(precision)) break;
  }
  return buf;
}

void AppendJsonString(std::string_view text, std::string* out) {
  out->push_back('"');
  for (unsigned char c : text) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

void AppendJson(const JsonValue& value, std::string* out) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      *out += "null";
      break;
    case JsonValue::Kind::kBool:
      *out += value.bool_value() ? "true" : "false";
      break;
    case JsonValue::Kind::kInt:
      *out += std::to_string(value.int_value());
      break;
    case JsonValue::Kind::kDouble:
      *out += ShortestDouble(value.double_value());
      break;
    case JsonValue::Kind::kString:
      AppendJsonString(value.string_value(), out);
      break;
    case JsonValue::Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& item : value.items()) {
        if (!first) out->push_back(',');
        first = false;
        AppendJson(item, out);
      }
      out->push_back(']');
      break;
    }
    case JsonValue::Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, member] : value.members()) {
        if (!first) out->push_back(',');
        first = false;
        AppendJsonString(key, out);
        out->push_back(':');
        AppendJson(member, out);
      }
      out->push_back('}');
      break;
    }
  }
}

std::string WriteJson(const JsonValue& value) {
  std::string out;
  AppendJson(value, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

/// Recursive-descent parser over a string_view. Positions in error
/// messages are byte offsets into the input.
class Parser {
 public:
  Parser(std::string_view text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    PROX_RETURN_NOT_OK(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Error("invalid literal");
    }
    pos_ += literal.size();
    return Status::OK();
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > max_depth_) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        PROX_RETURN_NOT_OK(ConsumeLiteral("null"));
        *out = JsonValue::Null();
        return Status::OK();
      case 't':
        PROX_RETURN_NOT_OK(ConsumeLiteral("true"));
        *out = JsonValue::Bool(true);
        return Status::OK();
      case 'f':
        PROX_RETURN_NOT_OK(ConsumeLiteral("false"));
        *out = JsonValue::Bool(false);
        return Status::OK();
      case '"':
        return ParseString(out);
      case '[':
        return ParseArray(out, depth);
      case '{':
        return ParseObject(out, depth);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    JsonValue array = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) {
      *out = std::move(array);
      return Status::OK();
    }
    while (true) {
      JsonValue item;
      PROX_RETURN_NOT_OK(ParseValue(&item, depth + 1));
      array.Append(std::move(item));
      SkipWhitespace();
      if (Consume(']')) break;
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
    *out = std::move(array);
    return Status::OK();
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    JsonValue object = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) {
      *out = std::move(object);
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected string key in object");
      }
      JsonValue key;
      PROX_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      JsonValue value;
      PROX_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      object.Set(key.string_value(), std::move(value));
      SkipWhitespace();
      if (Consume('}')) break;
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
    *out = std::move(object);
    return Status::OK();
  }

  Status ParseString(JsonValue* out) {
    ++pos_;  // '"'
    std::string value;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      unsigned char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        *out = JsonValue::Str(std::move(value));
        return Status::OK();
      }
      if (c < 0x20) return Error("unescaped control character in string");
      if (c != '\\') {
        value.push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // '\'
      if (pos_ >= text_.size()) return Error("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': value.push_back('"'); break;
        case '\\': value.push_back('\\'); break;
        case '/': value.push_back('/'); break;
        case 'b': value.push_back('\b'); break;
        case 'f': value.push_back('\f'); break;
        case 'n': value.push_back('\n'); break;
        case 'r': value.push_back('\r'); break;
        case 't': value.push_back('\t'); break;
        case 'u': {
          uint32_t code = 0;
          PROX_RETURN_NOT_OK(ParseHex4(&code));
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (!(Consume('\\') && Consume('u'))) {
              return Error("unpaired high surrogate");
            }
            uint32_t low = 0;
            PROX_RETURN_NOT_OK(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(code, &value);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_ + i];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = value;
    return Status::OK();
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (Consume('-')) {
      // fallthrough to digits
    }
    if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
      return Error("invalid number");
    }
    if (text_[pos_] == '0') {
      ++pos_;  // no leading zeros
    } else {
      while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
    }
    bool integral = true;
    if (Consume('.')) {
      integral = false;
      if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
        return Error("digit required after decimal point");
      }
      while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
        return Error("digit required in exponent");
      }
      while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
    }
    std::string token(text_.substr(start, pos_ - start));
    // "-0" must stay a double: as int it would write back as "0" and the
    // sign bit would not survive a round trip.
    if (token == "-0") integral = false;
    if (integral) {
      errno = 0;
      char* end = nullptr;
      long long parsed = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        *out = JsonValue::Int(static_cast<int64_t>(parsed));
        return Status::OK();
      }
      // Out of int64 range: fall through to double.
    }
    double parsed = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(parsed)) return Error("number out of range");
    *out = JsonValue::Double(parsed);
    return Status::OK();
  }

  static bool IsDigit(char c) { return c >= '0' && c <= '9'; }

  std::string_view text_;
  size_t pos_ = 0;
  int max_depth_;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text, int max_depth) {
  return Parser(text, max_depth).Parse();
}

}  // namespace prox
