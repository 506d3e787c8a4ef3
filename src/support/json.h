// One JSON emitter for the whole tree. Every machine-readable dump -- the
// bench BENCH_*.json lines, the report renderer's --report=json/sarif
// documents -- builds its text through this writer, so string escaping and
// number formatting exist in exactly one place.
//
// The writer is a streaming builder: values are appended in document order
// and commas/colons are inserted automatically from a small nesting stack.
// It does not validate key uniqueness or completeness; callers own document
// shape, the writer owns syntax.
#ifndef SNORLAX_SUPPORT_JSON_H_
#define SNORLAX_SUPPORT_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace snorlax::support {

// Escapes `s` for inclusion inside a JSON string literal (no surrounding
// quotes): quote, backslash, and control bytes become \", \\, \n, \uXXXX...
std::string JsonEscape(std::string_view s);

class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  // Emits "key": and arms the next value. Only valid inside an object.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  JsonWriter& UInt(uint64_t value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();
  // Fixed-point with `digits` decimals (the bench files use 2-4); non-finite
  // doubles are not valid JSON and are emitted as null.
  JsonWriter& Fixed(double value, int digits);
  // Shortest round-trippable representation (%.17g trimmed).
  JsonWriter& Double(double value);

  // Raw splice of an already-valid JSON value (used to embed one document
  // inside another without reparsing). The caller guarantees validity.
  JsonWriter& Raw(std::string_view json_value);

  // Key+value conveniences for the common object-field case.
  JsonWriter& Field(std::string_view key, std::string_view value) { return Key(key).String(value); }
  JsonWriter& Field(std::string_view key, const char* value) { return Key(key).String(value); }
  JsonWriter& Field(std::string_view key, int64_t value) { return Key(key).Int(value); }
  JsonWriter& Field(std::string_view key, int value) { return Key(key).Int(value); }
  JsonWriter& Field(std::string_view key, uint64_t value) { return Key(key).UInt(value); }
  JsonWriter& Field(std::string_view key, uint32_t value) { return Key(key).UInt(value); }
  JsonWriter& Field(std::string_view key, bool value) { return Key(key).Bool(value); }
  JsonWriter& Field(std::string_view key, double value, int digits) {
    return Key(key).Fixed(value, digits);
  }

  // The document built so far. Valid JSON once every Begin* is closed.
  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void BeforeValue();

  enum class Frame : uint8_t { kObject, kArray };
  std::string out_;
  std::vector<Frame> stack_;
  // True when the next value at the current nesting level needs a leading
  // comma; reset by Begin*/Key bookkeeping.
  std::vector<bool> has_value_;
  bool pending_key_ = false;
};

}  // namespace snorlax::support

#endif  // SNORLAX_SUPPORT_JSON_H_
