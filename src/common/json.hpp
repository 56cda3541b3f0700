// The one JSON layout that the bench binaries and nova_lint --json emit:
// a top-level object with one "key": value member per line, arrays of row
// objects with one {"k": v, ...} row per line, and inline objects/arrays
// inside a row. Doubles are rendered at a caller-given precision, exactly
// as Table::num renders them, so a JSON value matches its console cell.
#pragma once

#include <concepts>
#include <string>
#include <string_view>
#include <vector>

namespace nova::json {

/// JSON string escaping: labels and messages carry arbitrary builder text
/// (quotes in benchmark names would otherwise break the document). Control
/// characters degrade to \u00XX.
[[nodiscard]] std::string escape(std::string_view text);

/// An object rendered on one line: {"k": v, "k2": v2}. Members keep their
/// insertion order. Each adder returns *this so a row is one expression.
class Object {
 public:
  Object& string(std::string_view key, std::string_view value);
  Object& boolean(std::string_view key, bool value);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Object& integer(std::string_view key, T value) {
    return member(key, std::to_string(value));
  }
  /// `value` with `precision` decimals (Table::num's "%.*f").
  Object& number(std::string_view key, double value, int precision);
  Object& object(std::string_view key, const Object& value);
  /// An inline array of objects: [{...}, {...}], or [] when empty.
  Object& array(std::string_view key, const std::vector<Object>& values);

  /// The inline rendering.
  [[nodiscard]] std::string str() const;

 protected:
  /// Adds `key` with its already rendered JSON `value`.
  Object& member(std::string_view key, const std::string& value);

  /// Rendered "key": value members.
  std::vector<std::string> members_;
};

/// A whole document: one member per line at 2 spaces, each row of a
/// rows() array on its own line at 4 spaces, and a trailing newline.
class Document : public Object {
 public:
  /// An array of row objects, one row per line.
  void rows(std::string_view key, const std::vector<Object>& values);

  [[nodiscard]] std::string str() const;

  /// Writes str() to `path`; false when the file cannot be written.
  [[nodiscard]] bool write(const std::string& path) const;
};

}  // namespace nova::json
