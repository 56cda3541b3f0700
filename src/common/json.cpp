#include "common/json.hpp"

#include <cstdio>

#include "common/table.hpp"

namespace nova::json {

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// `text` escaped and in quotes.
std::string quoted(std::string_view text) {
  std::string out = "\"";
  out += escape(text);
  out += '"';
  return out;
}

}  // namespace

Object& Object::member(std::string_view key, const std::string& value) {
  members_.push_back(quoted(key) + ": " + value);
  return *this;
}

Object& Object::string(std::string_view key, std::string_view value) {
  return member(key, quoted(value));
}

Object& Object::boolean(std::string_view key, bool value) {
  return member(key, value ? "true" : "false");
}

Object& Object::number(std::string_view key, double value, int precision) {
  return member(key, Table::num(value, precision));
}

Object& Object::object(std::string_view key, const Object& value) {
  return member(key, value.str());
}

Object& Object::array(std::string_view key,
                      const std::vector<Object>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += values[i].str();
  }
  return member(key, out + "]");
}

std::string Object::str() const {
  std::string out = "{";
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (i > 0) out += ", ";
    out += members_[i];
  }
  return out + "}";
}

void Document::rows(std::string_view key,
                    const std::vector<Object>& values) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += "    " + values[i].str() + (i + 1 < values.size() ? ",\n" : "\n");
  }
  member(key, out + "  ]");
}

std::string Document::str() const {
  std::string out = "{\n";
  for (std::size_t i = 0; i < members_.size(); ++i) {
    out += "  " + members_[i] + (i + 1 < members_.size() ? ",\n" : "\n");
  }
  return out + "}\n";
}

bool Document::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const bool written = std::fputs(str().c_str(), out) >= 0;
  return std::fclose(out) == 0 && written;
}

}  // namespace nova::json
