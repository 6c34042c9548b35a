// Shell-style glob matching for names: campaign filters over scenario
// names and groups (harness/scenario.cpp), fault specs over link names
// (simfault/injector.cpp: "*-*" selects the WAN backbone links, "rennes.up"
// one site uplink). Header-only, so any layer can include it without a
// link dependency.
#pragma once

#include <cstddef>
#include <string_view>

namespace gridsim {

/// Whether `text` matches `pattern` in full. `*` matches any run of
/// characters (none included), `?` any one character; there are no
/// character classes and no escapes.
inline bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative matcher with the classic star-backtracking trick: remember
  // the last `*` and the text position it matched up to, and on mismatch
  // let the star absorb one more character.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

}  // namespace gridsim
