#include "obs/json.hpp"

#include <charconv>

namespace resex::obs {

void append_double(std::string& out, double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, ec == std::errc{} ? end : buf);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, ec == std::errc{} ? end : buf);
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          out += "\\u00";
          out.push_back(hex[(c >> 4) & 0xf]);
          out.push_back(hex[c & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  append_json_escaped(out, s);
  out.push_back('"');
}

}  // namespace resex::obs
