// The one JSON writer and reader behind every artifact pcxx emits or
// ingests (obs snapshots and traces, SCF and bench metrics, dslint JSON
// and SARIF, pcxx-prof reports). Writer rules, the same for every document:
//  * `"key": value` members, `, ` separators; an array element that is an
//    object or array starts its own line, indented two spaces per enclosing
//    line-broken array; a document ends with one newline;
//  * `"` and `\` are escaped, control characters become \b \f \n \r \t or
//    \u00XX, every other byte is copied as-is;
//  * integers are exact; doubles take the shortest form that reads back to
//    the same value (or three decimals via fixed3(), the Chrome trace
//    layout); a non-finite double is written as null.
// The reader accepts RFC 8259 JSON, decodes \uXXXX (surrogate pairs too)
// to UTF-8, bounds nesting at kMaxDepth and throws pcxx::FormatError, with
// the byte offset, on anything else. Numbers are held as double: exact for
// every integer up to 2^53.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pcxx::json {

/// Streaming writer. Calls nest like the document: beginObject(),
/// key()/member() pairs, endObject(); beginArray(), values, endArray().
/// Misuse (a value without a key in an object, an unclosed container at
/// str()) throws pcxx::InternalError.
class Writer {
 public:
  Writer& beginObject() { return open('{'); }
  Writer& endObject() { return close('}'); }
  Writer& beginArray() { return open('['); }
  Writer& endArray() { return close(']'); }
  /// Names the next value; valid only directly inside an object.
  Writer& key(std::string_view name);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(bool b) { return token(b ? "true" : "false"); }
  Writer& value(double v);
  template <std::integral T>
  Writer& value(T v) {
    char buf[24];
    return token(buf, std::to_chars(buf, buf + sizeof buf, v));
  }
  /// `v` with exactly three decimals (printf "%.3f").
  Writer& fixed3(double v);

  template <typename T>
  Writer& member(std::string_view name, const T& v) {
    return key(name).value(v);
  }

  /// The finished document plus a trailing newline.
  std::string str() const;

 private:
  struct Frame {
    bool array = false;
    bool empty = true;
    bool broke = false;  ///< an element of this array started a new line
  };
  void prefix(bool container);
  void quote(std::string_view s);
  Writer& token(std::string_view text);
  Writer& token(const char* first, std::to_chars_result r);
  Writer& open(char bracket);
  Writer& close(char bracket);

  std::string out_;
  std::vector<Frame> stack_;
  int breaks_ = 0;  ///< open arrays that broke lines: the indent level
  bool afterKey_ = false;
};

/// Writes `document` to a sibling temp file and renames it over `path`, so
/// a reader (or a crash mid-dump) never sees a half-written artifact.
/// Throws pcxx::IoError.
void writeFile(const std::string& path, const std::string& document);

/// Deepest array/object nesting the reader accepts. The emitters nest at
/// most about 8 levels; the bound turns a hostile input into a FormatError
/// instead of a stack overflow.
constexpr int kMaxDepth = 256;

/// One parsed JSON value. Object members preserve document order.
struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() = default;
  explicit Value(Kind k) : kind(k) {}

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> items;                             ///< Array
  std::vector<std::pair<std::string, Value>> members;   ///< Object

  bool isObject() const { return kind == Kind::Object; }
  bool isArray() const { return kind == Kind::Array; }

  /// Object member lookup; null when absent or not an object.
  const Value* find(const std::string& key) const;

  /// Member value coerced to double/uint64/string, or `def` when the
  /// member is absent or has the wrong kind.
  double numberAt(const std::string& key, double def = 0.0) const;
  std::uint64_t countAt(const std::string& key, std::uint64_t def = 0) const;
  std::string stringAt(const std::string& key,
                       const std::string& def = {}) const;

  /// Member value as a T, or `def` when the member is absent. A member
  /// that is not a number, has a fraction or lies outside T's range
  /// throws pcxx::FormatError.
  /// Defined for int and std::int64_t.
  template <std::signed_integral T>
  T intAt(const std::string& key, T def = 0) const;
};

/// Parse a complete JSON document. Throws pcxx::FormatError (with byte
/// offset and context) on malformed input or trailing garbage.
Value parse(const std::string& text);

/// Read and parse a JSON file. Throws pcxx::IoError when the file cannot
/// be read, pcxx::FormatError when it does not parse.
Value parseFile(const std::string& path);

}  // namespace pcxx::json
