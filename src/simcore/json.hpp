// String escaping for the simulator's hand-written JSON reports.
//
// Every report writer (campaign, model checker, collective guidelines)
// emits one object per line with fprintf and escapes its strings here.
// Header-only, so any layer can include it without a link dependency.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace gridsim {

/// `s` as the body of a JSON string: quote and backslash are
/// backslash-escaped, every other control character becomes \u00XX.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace gridsim
