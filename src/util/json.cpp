#include "util/json.hpp"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace upin::util {

// ---------------------------------------------------------------- JsonObject

JsonObject::JsonObject(std::initializer_list<Entry> entries) {
  entries_.reserve(entries.size());
  for (const auto& entry : entries) set(entry.first, entry.second);
}

bool JsonObject::contains(std::string_view key) const noexcept {
  return find(key) != nullptr;
}

void JsonObject::set(std::string key, Value value) {
  if (Value* existing = find(key)) {
    *existing = std::move(value);
    return;
  }
  entries_.emplace_back(std::move(key), std::move(value));
}

bool JsonObject::erase(std::string_view key) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->first == key) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

bool JsonObject::operator==(const JsonObject& other) const {
  if (entries_.size() != other.entries_.size()) return false;
  // Order-insensitive comparison: documents are equal when their fields are.
  for (const auto& [name, value] : entries_) {
    const Value* theirs = other.find(name);
    if (theirs == nullptr || !(*theirs == value)) return false;
  }
  return true;
}

// --------------------------------------------------------------------- Value

const char* Value::type_name() const noexcept {
  switch (type()) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kInt: return "int";
    case Type::kDouble: return "double";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
  }
  return "?";
}

const Value* Value::get_path(std::string_view dotted) const noexcept {
  const Value* current = this;
  while (!dotted.empty()) {
    const std::size_t dot = dotted.find('.');
    const std::string_view head =
        dot == std::string_view::npos ? dotted : dotted.substr(0, dot);
    dotted = dot == std::string_view::npos ? std::string_view{}
                                           : dotted.substr(dot + 1);
    current = current->get(head);
    if (current == nullptr) return nullptr;
  }
  return current;
}

Value& Value::operator[](std::string_view key) {
  if (is_null()) data_ = JsonObject{};
  assert(is_object());
  JsonObject& object = as_object();
  if (Value* existing = object.find(key)) return *existing;
  object.set(std::string(key), Value());
  return *object.find(key);
}

bool Value::operator==(const Value& other) const {
  if (is_number() && other.is_number()) {
    if (is_int() && other.is_int()) return as_int() == other.as_int();
    return as_double() == other.as_double();
  }
  return data_ == other.data_;
}

// ------------------------------------------------------------------- writer

namespace {

void write_escaped(const std::string& text, std::string& out) {
  out.push_back('"');
  // Runs of characters that need no escape are appended in one go.
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
      continue;
    }
    out.append(text, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {  // the other control characters
        char buffer[8];
        std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += buffer;
      }
    }
  }
  out.append(text, run, text.size() - run);
  out.push_back('"');
}

void write_int(std::int64_t value, std::string& out) {
  char buffer[20];  // "-9223372036854775808"
  out.append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
}

void write_double(double value, std::string& out) {
  if (std::isnan(value) || std::isinf(value)) {
    // JSON has no NaN/Inf; store null, matching common serializers.
    out += "null";
    return;
  }
  char buffer[32];
  const auto result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
  // Ensure a double round-trips as a double (not reparsed as an int).
  std::string_view written(buffer, static_cast<std::size_t>(result.ptr - buffer));
  if (written.find('.') == std::string_view::npos &&
      written.find('e') == std::string_view::npos &&
      written.find('E') == std::string_view::npos) {
    out += ".0";
  }
}

void dump_value(const Value& value, int indent, int depth, std::string& out) {
  const bool pretty = indent >= 0;
  const auto newline_indent = [&](int levels) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * levels), ' ');
  };

  switch (value.type()) {
    case Value::Type::kNull: out += "null"; break;
    case Value::Type::kBool: out += value.as_bool() ? "true" : "false"; break;
    case Value::Type::kInt: write_int(value.as_int(), out); break;
    case Value::Type::kDouble: write_double(value.as_double(), out); break;
    case Value::Type::kString: write_escaped(value.as_string(), out); break;
    case Value::Type::kArray: {
      const auto& array = value.as_array();
      if (array.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      bool first = true;
      for (const Value& element : array) {
        if (!first) out.push_back(',');
        first = false;
        newline_indent(depth + 1);
        dump_value(element, indent, depth + 1, out);
      }
      newline_indent(depth);
      out.push_back(']');
      break;
    }
    case Value::Type::kObject: {
      const auto& object = value.as_object();
      if (object.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [name, field] : object) {
        if (!first) out.push_back(',');
        first = false;
        newline_indent(depth + 1);
        write_escaped(name, out);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        dump_value(field, indent, depth + 1, out);
      }
      newline_indent(depth);
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

std::string Value::dump(int indent) const {
  std::string out;
  dump_value(*this, indent, 0, out);
  return out;
}

// ------------------------------------------------------------------- parser

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> parse_document() {
    skip_whitespace();
    Result<Value> value = parse_value();
    if (!value.ok()) return value;
    skip_whitespace();
    if (pos_ != text_.size()) {
      return fail("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Error make_error(const std::string& message) const {
    return Error{ErrorCode::kParseError,
                 message + " at offset " + std::to_string(pos_)};
  }
  Result<Value> fail(const std::string& message) const {
    return Result<Value>(make_error(message));
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[pos_]; }
  char take() noexcept { return text_[pos_++]; }

  void skip_whitespace() noexcept {
    while (!at_end()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool consume_literal(std::string_view literal) noexcept {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Result<Value> parse_value() {
    if (at_end()) return fail("unexpected end of input");
    // Containers recurse; cap the depth so adversarial inputs
    // ("[[[[[...") cannot exhaust the stack (a §4.1.4-style hardening).
    if (depth_ > kMaxDepth) return fail("nesting too deep");
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        Result<std::string> text = parse_string();
        if (!text.ok()) return Result<Value>(text.error());
        return Result<Value>(Value(std::move(text.value())));
      }
      case 't':
        if (consume_literal("true")) return Result<Value>(Value(true));
        return fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Result<Value>(Value(false));
        return fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Result<Value>(Value(nullptr));
        return fail("invalid literal");
      default: return parse_number();
    }
  }

  Result<Value> parse_object() {
    take();  // '{'
    ++depth_;
    const DepthGuard guard(depth_);
    JsonObject object;
    skip_whitespace();
    if (!at_end() && peek() == '}') {
      take();
      return Result<Value>(Value(std::move(object)));
    }
    for (;;) {
      skip_whitespace();
      if (at_end() || peek() != '"') return fail("expected object key");
      Result<std::string> key = parse_string();
      if (!key.ok()) return Result<Value>(key.error());
      skip_whitespace();
      if (at_end() || take() != ':') return fail("expected ':' after key");
      skip_whitespace();
      Result<Value> value = parse_value();
      if (!value.ok()) return value;
      object.set(std::move(key.value()), std::move(value.value()));
      skip_whitespace();
      if (at_end()) return fail("unterminated object");
      const char c = take();
      if (c == '}') return Result<Value>(Value(std::move(object)));
      if (c != ',') return fail("expected ',' or '}' in object");
    }
  }

  Result<Value> parse_array() {
    take();  // '['
    ++depth_;
    const DepthGuard guard(depth_);
    Value::Array array;
    skip_whitespace();
    if (!at_end() && peek() == ']') {
      take();
      return Result<Value>(Value(std::move(array)));
    }
    for (;;) {
      skip_whitespace();
      Result<Value> value = parse_value();
      if (!value.ok()) return value;
      array.push_back(std::move(value.value()));
      skip_whitespace();
      if (at_end()) return fail("unterminated array");
      const char c = take();
      if (c == ']') return Result<Value>(Value(std::move(array)));
      if (c != ',') return fail("expected ',' or ']' in array");
    }
  }

  Result<std::string> parse_string() {
    take();  // '"'
    std::string out;
    for (;;) {
      if (at_end()) {
        return Result<std::string>(make_error("unterminated string"));
      }
      const char c = take();
      if (c == '"') return Result<std::string>(std::move(out));
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (at_end()) {
        return Result<std::string>(make_error("unterminated escape"));
      }
      const char escape = take();
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Result<std::string>(make_error("truncated \\u escape"));
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Result<std::string>(make_error("bad \\u escape digit"));
            }
          }
          // Encode the code point as UTF-8 (BMP only; surrogate pairs are
          // passed through as two 3-byte sequences, fine for our data).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Result<std::string>(make_error("unknown escape"));
      }
    }
  }

  Result<Value> parse_number() {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') take();
    // JSON requires at least one digit before any fraction or exponent.
    if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      return fail("invalid number");
    }
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) take();
    bool is_floating = false;
    if (!at_end() && peek() == '.') {
      is_floating = true;
      take();
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) take();
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      is_floating = true;
      take();
      if (!at_end() && (peek() == '+' || peek() == '-')) take();
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) take();
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") return fail("invalid number");

    if (!is_floating) {
      std::int64_t integer = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), integer);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return Result<Value>(Value(integer));
      }
      // Fall through to double on overflow.
    }
    double floating = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), floating);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      return fail("invalid number");
    }
    return Result<Value>(Value(floating));
  }

  static constexpr int kMaxDepth = 256;
  struct DepthGuard {
    explicit DepthGuard(int& depth) : depth_(depth) {}
    ~DepthGuard() { --depth_; }
    int& depth_;
  };

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<Value> Value::parse(std::string_view text) {
  Parser parser(text);
  return parser.parse_document();
}

}  // namespace upin::util
