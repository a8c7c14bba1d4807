#pragma once

// Minimal JSON rendering for the benchmark's report lines and files.

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace perfbench {

/// A number with all the digits needed to read it back exactly; JSON has
/// no NaN or infinity, so those render as null.
inline std::string jsonNumber(double v) {
  if (!std::isfinite(v))
    return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string jsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

} // namespace perfbench
