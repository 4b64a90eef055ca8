#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/error.h"
#include "util/strfmt.h"

namespace pcxx::json {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void Writer::prefix(bool container) {
  if (afterKey_ || stack_.empty()) {
    afterKey_ = false;
    return;
  }
  Frame& f = stack_.back();
  PCXX_CHECK(f.array);  // an object member needs key() first
  if (!f.empty) out_ += container ? "," : ", ";
  if (container) {
    if (!f.broke) ++breaks_;
    f.broke = true;
    out_.append("\n").append(static_cast<size_t>(2 * breaks_), ' ');
  }
  f.empty = false;
}

Writer& Writer::open(char bracket) {
  prefix(true);
  out_ += bracket;
  stack_.push_back(Frame{bracket == '['});
  return *this;
}

Writer& Writer::close(char bracket) {
  PCXX_CHECK(!stack_.empty() && stack_.back().array == (bracket == ']') &&
             !afterKey_);
  if (stack_.back().broke) {
    --breaks_;
    out_.append("\n").append(static_cast<size_t>(2 * breaks_), ' ');
  }
  stack_.pop_back();
  out_ += bracket;
  return *this;
}

Writer& Writer::key(std::string_view name) {
  PCXX_CHECK(!stack_.empty() && !stack_.back().array && !afterKey_);
  if (!stack_.back().empty) out_ += ", ";
  stack_.back().empty = false;
  quote(name);
  out_ += ": ";
  afterKey_ = true;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  prefix(false);
  quote(s);
  return *this;
}

void Writer::quote(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_ += '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\b': out_ += "\\b"; break;
      case '\f': out_ += "\\f"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (u < 0x20) {
          out_.append("\\u00").append(1, kHex[u >> 4]).append(1, kHex[u & 15]);
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

Writer& Writer::value(double v) {
  char buf[32];
  return std::isfinite(v) ? token(buf, std::to_chars(buf, buf + 32, v))
                          : token("null");
}

Writer& Writer::fixed3(double v) {
  char buf[320];  // DBL_MAX has 309 integer digits
  return std::isfinite(v)
             ? token(buf, std::to_chars(buf, buf + 320, v,
                                        std::chars_format::fixed, 3))
             : token("null");
}

Writer& Writer::token(const char* first, std::to_chars_result r) {
  PCXX_CHECK(r.ec == std::errc());
  return token(std::string_view(first, static_cast<size_t>(r.ptr - first)));
}

Writer& Writer::token(std::string_view text) {
  prefix(false);
  out_ += text;
  return *this;
}

std::string Writer::str() const {
  PCXX_CHECK(stack_.empty() && !afterKey_ && !out_.empty());
  return out_ + '\n';
}

void writeFile(const std::string& path, const std::string& document) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw IoError("cannot open output file: " + tmp);
    out << document;
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw IoError("failed writing output file: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError("cannot rename output file into place: " + path);
  }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

const Value* Value::find(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& m : members) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

double Value::numberAt(const std::string& key, double def) const {
  const Value* v = find(key);
  return v != nullptr && v->kind == Kind::Number ? v->number : def;
}

std::uint64_t Value::countAt(const std::string& key,
                             std::uint64_t def) const {
  const Value* v = find(key);
  // 2^64 and above (inf included) has no uint64 value.
  if (v == nullptr || v->kind != Kind::Number || v->number < 0.0 ||
      v->number >= 18446744073709551616.0) {
    return def;
  }
  return static_cast<std::uint64_t>(v->number);
}

template <std::signed_integral T>
T Value::intAt(const std::string& key, T def) const {
  const Value* v = find(key);
  if (v == nullptr) return def;
  constexpr T lo = std::numeric_limits<T>::min();
  constexpr T hi = std::numeric_limits<T>::max();
  // Both bounds convert to double exactly except INT64_MAX, which rounds up
  // to 2^63; hi + 1.0 is then still the first value out of range.
  const double x = v->number;
  if (v->kind != Kind::Number || x != std::trunc(x) ||
      !(x >= static_cast<double>(lo) && x < static_cast<double>(hi) + 1.0)) {
    throw FormatError(strfmt(
        "member \"%s\" is not an integer in [%lld, %lld]", key.c_str(),
        static_cast<long long>(lo), static_cast<long long>(hi)));
  }
  return static_cast<T>(x);
}
template int Value::intAt<int>(const std::string&, int) const;
template std::int64_t Value::intAt<std::int64_t>(const std::string&,
                                                 std::int64_t) const;

std::string Value::stringAt(const std::string& key,
                            const std::string& def) const {
  const Value* v = find(key);
  return v != nullptr && v->kind == Kind::String ? v->str : def;
}

namespace {

class Parser {
 public:
  /// `source` names the input in error messages ("" for none).
  Parser(const std::string& text, const std::string& source)
      : text_(text), source_(source) {}

  Value parseDocument() {
    Value v = parseValue(0);
    skipWs();
    if (pos_ != text_.size()) fail("trailing data after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::ostringstream ss;
    if (!source_.empty()) ss << source_ << ": ";
    ss << "JSON parse error at byte " << pos_ << ": " << what;
    throw FormatError(ss.str());
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           std::string_view(" \t\n\r").find(text_[pos_]) !=
               std::string_view::npos) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  /// Consumes `c` when it is next.
  bool accept(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', found '" + peek() + "'");
    }
    ++pos_;
  }

  /// `depth` counts the arrays and objects around the value.
  Value parseValue(int depth) {
    skipWs();
    switch (peek()) {
      case '{': return parseObject(depth + 1);
      case '[': return parseArray(depth + 1);
      case '"': return parseString();
      case 't': return parseLiteral("true", Value::Kind::Bool, true);
      case 'f': return parseLiteral("false", Value::Kind::Bool, false);
      case 'n': return parseLiteral("null", Value::Kind::Null, false);
      default: return parseNumber();
    }
  }

  /// An empty array or object at `depth`, its opening bracket consumed.
  Value open(Value::Kind kind, int depth) {
    if (depth > kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth));
    }
    ++pos_;
    skipWs();
    Value v(kind);
    return v;
  }

  Value parseObject(int depth) {
    Value v = open(Value::Kind::Object, depth);
    if (accept('}')) return v;
    do {
      skipWs();
      std::string key = parseString().str;
      skipWs();
      expect(':');
      v.members.emplace_back(std::move(key), parseValue(depth));
      skipWs();
    } while (accept(','));
    expect('}');
    return v;
  }

  Value parseArray(int depth) {
    Value v = open(Value::Kind::Array, depth);
    if (accept(']')) return v;
    do {
      v.items.push_back(parseValue(depth));
      skipWs();
    } while (accept(','));
    expect(']');
    return v;
  }

  /// The four hex digits of a \u escape.
  unsigned hex4() {
    if (text_.size() - pos_ < 4) fail("truncated \\u escape");
    const char* first = text_.data() + pos_;
    unsigned code = 0;
    if (std::from_chars(first, first + 4, code, 16).ptr != first + 4) {
      fail("non-hex digit in \\u escape");
    }
    pos_ += 4;
    return code;
  }

  /// Decodes a \u escape (its "\u" already consumed) to UTF-8. A high
  /// surrogate must be followed by an escaped low one.
  void appendEscapedCodePoint(std::string& out) {
    unsigned cp = hex4();
    if (cp >= 0xDC00 && cp <= 0xDFFF) fail("unpaired low surrogate");
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (!accept('\\') || !accept('u')) fail("unpaired high surrogate");
      const unsigned lo = hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired high surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    }
    static constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
    for (int i = tail - 1; i >= 0; --i) {
      out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
    }
  }

  Value parseString() {
    expect('"');
    Value v(Value::Kind::String);
    for (;;) {
      const char c = peek();
      ++pos_;
      if (c == '"') return v;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        v.str += c;
        continue;
      }
      const char e = peek();
      ++pos_;
      switch (e) {
        case '"': case '\\': case '/': v.str += e; break;
        case 'b': v.str += '\b'; break;
        case 'f': v.str += '\f'; break;
        case 'n': v.str += '\n'; break;
        case 'r': v.str += '\r'; break;
        case 't': v.str += '\t'; break;
        case 'u': appendEscapedCodePoint(v.str); break;
        default: fail(std::string("unknown escape '\\") + e + "'");
      }
    }
  }

  /// RFC 8259 number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  Value parseNumber() {
    const size_t start = pos_;
    const auto digits = [this] {
      const size_t from = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      return pos_ > from;
    };
    accept('-');
    if (!accept('0') && !digits()) fail("expected a value");
    bool ok = !accept('.') || digits();
    if (ok && (accept('e') || accept('E'))) {
      if (!accept('+')) accept('-');
      ok = digits();
    }
    if (!ok) {
      fail("malformed number '" + text_.substr(start, pos_ - start) + "'");
    }
    // strtod, not from_chars: an out-of-range literal (1e999) reads as
    // +-inf and a tiny one as a subnormal or zero instead of failing.
    Value v(Value::Kind::Number);
    v.number = std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    return v;
  }

  Value parseLiteral(std::string_view word, Value::Kind kind, bool b) {
    if (text_.compare(pos_, word.size(), word) != 0) {
      fail("expected '" + std::string(word) + "'");
    }
    pos_ += word.size();
    Value v(kind);
    v.boolean = b;
    return v;
  }

  const std::string& text_;
  const std::string& source_;
  size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text) {
  return Parser(text, std::string()).parseDocument();
}

Value parseFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open input file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) throw IoError("failed reading input file: " + path);
  const std::string text = buf.str();
  return Parser(text, path).parseDocument();
}

}  // namespace pcxx::json
