#include "harness/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace gridsim::harness {

namespace {

void append_row(std::string& out, const std::vector<std::string>& cells,
                const std::vector<std::size_t>& widths) {
  out += "  ";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out += cells[i];
    if (i + 1 < cells.size() && i < widths.size()) {
      const std::size_t w = std::max(widths[i], cells[i].size());
      out.append(w + 2 - cells[i].size(), ' ');
    }
  }
  out += '\n';
}

}  // namespace

std::string render_table(const std::string& title,
                         const std::vector<std::string>& headers,
                         const std::vector<std::vector<std::string>>& rows) {
  std::string out = "\n# " + title + "\n";
  std::vector<std::size_t> widths(headers.size(), 0);
  for (std::size_t i = 0; i < headers.size(); ++i)
    widths[i] = headers[i].size();
  for (const auto& row : rows)
    for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i)
      widths[i] = std::max(widths[i], row[i].size());
  append_row(out, headers, widths);
  std::vector<std::string> rule;
  for (auto w : widths) rule.push_back(std::string(w, '-'));
  append_row(out, rule, widths);
  for (const auto& row : rows) append_row(out, row, widths);
  return out;
}

std::string render_csv(const std::string& title,
                       const std::vector<std::string>& headers,
                       const std::vector<std::vector<std::string>>& rows) {
  std::string out = "\n# " + title + " (csv)\n";
  for (std::size_t i = 0; i < headers.size(); ++i) {
    if (i) out += ',';
    out += headers[i];
  }
  out += '\n';
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out += ',';
      out += row[i];
    }
    out += '\n';
  }
  return out;
}

std::string render_ascii_chart(const std::string& title,
                               const std::vector<std::string>& series_names,
                               const std::vector<std::string>& x_labels,
                               const std::vector<std::vector<double>>& values,
                               double y_max, const std::string& unit) {
  constexpr int kWidth = 46;
  char buf[160];
  std::snprintf(buf, sizeof buf, "\n# %s  (each bar: 0..%.0f %s)\n",
                title.c_str(), y_max, unit.c_str());
  std::string out = buf;
  for (std::size_t s = 0; s < series_names.size(); ++s) {
    out += "  -- " + series_names[s] + " --\n";
    for (std::size_t x = 0; x < x_labels.size(); ++x) {
      const double v = values[s][x];
      int bar = static_cast<int>(std::lround(v / y_max * kWidth));
      bar = std::clamp(bar, 0, kWidth);
      std::snprintf(buf, sizeof buf, "  %8s |%-*s| %8.1f %s\n",
                    x_labels[x].c_str(), kWidth,
                    std::string(static_cast<size_t>(bar), '#').c_str(), v,
                    unit.c_str());
      out += buf;
    }
  }
  return out;
}

std::string format_bytes(double bytes) {
  char buf[32];
  if (bytes >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof buf, "%gM", bytes / (1024.0 * 1024.0));
  } else if (bytes >= 1024.0) {
    std::snprintf(buf, sizeof buf, "%gk", bytes / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%g", bytes);
  }
  return buf;
}

std::string format_double(double v, int precision) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

}  // namespace gridsim::harness
