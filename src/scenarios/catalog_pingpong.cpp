// Ping-pong scenarios: the bandwidth figures (3, 5, 6, 7), the latency
// table (4), the threshold study (Table 5), the socket-buffer ablation and
// the MPICH-G2 extension. One scenario per implementation per artifact;
// the group renderers reassemble the paper's tables/charts from the
// per-implementation results.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "harness/pingpong.hpp"
#include "scenarios/catalog_internal.hpp"
#include "simtcp/tcp.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::scenarios::detail {

namespace {

using harness::ScenarioContext;
using harness::ScenarioRegistry;
using harness::ScenarioResult;
using harness::ScenarioSpec;
using profiles::TuningLevel;

// ---------------------------------------------------------------------------
// Figs 3/5/6/7: the 1 kB..64 MB bandwidth sweep per implementation.
// ---------------------------------------------------------------------------

struct BandwidthFigure {
  const char* group;
  const char* title;
  bool grid;
  TuningLevel level;
  const char* paper_note;
};

std::vector<double> figure_sizes() {
  return harness::pow2_sizes(1024, 64.0 * 1024 * 1024);
}

void register_bandwidth_figure(ScenarioRegistry& reg,
                               const BandwidthFigure& fig) {
  for (const auto& impl : profiles_with_tcp()) {
    ScenarioSpec spec;
    spec.group = fig.group;
    spec.name = std::string(fig.group) + "/" + impl.name;
    spec.description =
        std::string(fig.title) + " -- " + impl.name + " on TCP";
    spec.expected_metrics = {"peak_mbps"};
    const bool grid = fig.grid;
    const TuningLevel level = fig.level;
    spec.run = [impl, grid, level](const ScenarioContext&) {
      const auto topo = grid ? topo::GridSpec::rennes_nancy(1)
                             : topo::GridSpec::single_cluster(2);
      const harness::PingpongEndpoints ends =
          grid ? harness::PingpongEndpoints{0, 0, 1, 0}
               : harness::PingpongEndpoints{0, 0, 0, 1};
      harness::PingpongOptions options;
      options.sizes = figure_sizes();
      options.rounds = 12;
      const auto points = harness::pingpong_sweep(
          topo, ends, profiles::experiment(impl).tuning(level), options);
      ScenarioResult res;
      double peak = 0;
      for (const auto& p : points) {
        res.add("mbps_" + harness::format_bytes(p.bytes),
                p.max_bandwidth_mbps, "Mbps");
        peak = std::max(peak, p.max_bandwidth_mbps);
      }
      res.add("peak_mbps", peak, "Mbps");
      res.note = "peak " + harness::format_double(peak, 1) + " Mbps";
      return res;
    };
    reg.add(std::move(spec));
  }

  reg.set_renderer(fig.group, [fig](const auto& specs, const auto& results) {
    const auto sizes = figure_sizes();
    std::vector<std::string> series_names;
    std::vector<std::vector<double>> values;
    for (std::size_t s = 0; s < specs.size(); ++s) {
      series_names.push_back(variant_of(specs[s]->name) + " on TCP");
      values.emplace_back();
      for (double size : sizes)
        values.back().push_back(
            results[s]->metric("mbps_" + harness::format_bytes(size)));
    }
    std::vector<std::string> headers{"size"};
    for (const auto& n : series_names) headers.push_back(n);
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> x_labels;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      x_labels.push_back(harness::format_bytes(sizes[i]));
      rows.push_back({x_labels.back()});
      for (auto& v : values)
        rows.back().push_back(harness::format_double(v[i], 1));
    }
    std::string out = harness::render_csv(
        std::string(fig.title) + " -- MPI bandwidth (Mbps)", headers, rows);
    out += harness::render_ascii_chart(fig.title, series_names, x_labels,
                                       values, 1000, "Mbps");
    out += fig.paper_note;
    return out;
  });
}

// ---------------------------------------------------------------------------
// Table 4: one-way 1-byte latency, cluster and grid, per implementation.
// ---------------------------------------------------------------------------

void register_table4(ScenarioRegistry& reg) {
  for (const auto& impl : profiles_with_tcp()) {
    ScenarioSpec spec;
    spec.group = "table4";
    spec.name = "table4/" + impl.name;
    spec.description =
        "one-way 1-byte latency, cluster and grid -- " + impl.name;
    spec.expected_metrics = {"lan_us", "wan_us"};
    spec.run = [impl](const ScenarioContext&) {
      const profiles::ExperimentConfig cfg = profiles::experiment(impl);
      const SimTime lan = harness::pingpong_min_latency(
          topo::GridSpec::single_cluster(2), {0, 0, 0, 1}, cfg, 20);
      const SimTime wan = harness::pingpong_min_latency(
          topo::GridSpec::rennes_nancy(1), {0, 0, 1, 0}, cfg, 20);
      ScenarioResult res;
      res.add("lan_us", to_microseconds(lan), "us");
      res.add("wan_us", to_microseconds(wan), "us");
      res.note = "cluster " + harness::format_double(to_microseconds(lan), 1) +
                 " us, grid " +
                 harness::format_double(to_microseconds(wan), 1) + " us";
      return res;
    };
    reg.add(std::move(spec));
  }

  reg.set_renderer("table4", [](const auto& specs, const auto& results) {
    struct PaperRow {
      double lan_us, wan_us;
    };
    const PaperRow paper[] = {
        {41, 5812}, {46, 5818}, {46, 5819}, {62, 5826}, {46, 5820}};
    std::vector<std::vector<std::string>> rows;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      rows.push_back(
          {variant_of(specs[i]->name),
           harness::format_double(results[i]->metric("lan_us"), 1),
           harness::format_double(paper[i].lan_us, 0),
           harness::format_double(results[i]->metric("wan_us"), 1),
           harness::format_double(paper[i].wan_us, 0)});
    }
    std::string out = harness::render_table(
        "Table 4: one-way latency in a cluster and in the grid (us)",
        {"implementation", "cluster (model)", "cluster (paper)",
         "grid (model)", "grid (paper)"},
        rows);
    out +=
        "\nNote: the model attributes ~6 us less fixed kernel cost on the "
        "WAN\npath than the testbed measured; the per-implementation deltas "
        "are\nthe quantity Table 4 demonstrates.\n";
    return out;
  });
}

// ---------------------------------------------------------------------------
// Table 5: ideal eager/rendez-vous threshold per implementation.
// ---------------------------------------------------------------------------

/// Sum of per-size transfer times with one candidate threshold: lower is
/// better.
double sweep_score(const mpi::ImplProfile& base, double threshold,
                   const std::vector<double>& sizes) {
  harness::PingpongOptions options;
  options.sizes = sizes;
  options.rounds = 6;
  const auto points = harness::pingpong_sweep(
      topo::GridSpec::rennes_nancy(1), {0, 0, 1, 0},
      profiles::experiment(base)
          .tuning(TuningLevel::kTcpTuned)
          .eager_threshold(std::min(threshold, base.eager_threshold_max)),
      options);
  double total = 0;
  for (const auto& p : points) total += to_seconds(p.min_one_way);
  return total;
}

void register_table5(ScenarioRegistry& reg) {
  for (const auto& impl : profiles::all_implementations()) {
    ScenarioSpec spec;
    spec.group = "table5";
    spec.name = "table5/" + impl.name;
    spec.description = "ideal eager/rndv threshold sweep -- " + impl.name;
    spec.expected_metrics = {"ideal_bytes"};
    spec.run = [impl](const ScenarioContext&) {
      const auto sizes = figure_sizes();
      const std::vector<double> candidates = {
          64e3, 128e3, 256e3, 512e3, 1024e3, 4.0 * 1024 * 1024,
          32.0 * 1024 * 1024, 65.0 * 1024 * 1024};
      double best = candidates.front();
      double best_score = 1e300;
      for (double cand : candidates) {
        const double score = sweep_score(impl, cand, sizes);
        if (score < best_score - 1e-9) {
          best_score = score;
          best = std::min(cand, impl.eager_threshold_max);
        }
      }
      const bool no_rndv = std::isinf(impl.eager_threshold);
      ScenarioResult res;
      res.add("ideal_bytes", best, "B");
      // "original" / "ideal" as the table prints them; an implementation
      // with no rendez-vous by default needs no tuning (any threshold >=
      // the largest message scores identically).
      res.cells.push_back(no_rndv ? "inf"
                                  : harness::format_bytes(
                                        impl.eager_threshold) + "B");
      res.cells.push_back(no_rndv ? "- (unchanged)"
                                  : harness::format_bytes(best) + "B");
      res.note = "ideal " + res.cells[1];
      return res;
    };
    reg.add(std::move(spec));
  }

  reg.set_renderer("table5", [](const auto& specs, const auto& results) {
    struct PaperRow {
      const char* original;
      const char* ideal;
    };
    const PaperRow paper[] = {{"256 kB", "65 MB"},
                              {"inf", "- (unchanged)"},
                              {"128 kB", "65 MB"},
                              {"64 kB", "32 MB"}};
    std::vector<std::vector<std::string>> rows;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      rows.push_back({variant_of(specs[i]->name), results[i]->cells.at(0),
                      paper[i].original, results[i]->cells.at(1),
                      paper[i].ideal});
    }
    return harness::render_table(
        "Table 5: ideal eager/rndv threshold per implementation (grid)",
        {"implementation", "original (model)", "original (paper)",
         "ideal (model)", "ideal (paper)"},
        rows);
  });
}

// ---------------------------------------------------------------------------
// Ablation: socket buffer size vs peak grid bandwidth.
// ---------------------------------------------------------------------------

void register_ablation_buffers(ScenarioRegistry& reg) {
  const std::vector<double> buffers = {64e3,   128e3,  256e3,  512e3,
                                       1024e3, 2048e3, 4096e3, 8192e3};
  for (double buf : buffers) {
    ScenarioSpec spec;
    spec.group = "ablation_buffers";
    spec.name = "ablation_buffers/" + harness::format_bytes(buf) + "B";
    spec.description = "socket buffer sweep, 64 MB messages, buffer " +
                       harness::format_bytes(buf) + "B";
    spec.expected_metrics = {"measured_mbps", "bound_mbps"};
    spec.run = [buf](const ScenarioContext&) {
      const double rtt_s = 11.6e-3;
      harness::PingpongOptions options;
      options.sizes = {64e6};
      options.rounds = 8;
      const auto points = harness::pingpong_sweep(
          topo::GridSpec::rennes_nancy(1), {0, 0, 1, 0},
          profiles::experiment(profiles::openmpi())  // setsockopt strategy
              .tuning(TuningLevel::kTcpTuned)
              .setsockopt_bytes(buf)
              .eager_threshold(1e12),  // isolate the buffer effect
          options);
      const double predicted =
          std::min(buf * 8.0 / rtt_s, tcp::ethernet_goodput(1e9) * 8.0) / 1e6;
      ScenarioResult res;
      res.add("measured_mbps", points.at(0).max_bandwidth_mbps, "Mbps");
      res.add("bound_mbps", predicted, "Mbps");
      res.note = harness::format_double(points.at(0).max_bandwidth_mbps, 1) +
                 " Mbps (bound " + harness::format_double(predicted, 1) + ")";
      return res;
    };
    reg.add(std::move(spec));
  }

  reg.set_renderer(
      "ablation_buffers", [](const auto& specs, const auto& results) {
        std::vector<std::vector<std::string>> rows;
        for (std::size_t i = 0; i < specs.size(); ++i) {
          rows.push_back(
              {variant_of(specs[i]->name),
               harness::format_double(results[i]->metric("measured_mbps"), 1),
               harness::format_double(results[i]->metric("bound_mbps"), 1)});
        }
        std::string out = harness::render_table(
            "Ablation: socket buffer size vs peak grid bandwidth (64 MB "
            "messages)",
            {"buffer", "measured (Mbps)", "window/RTT bound (Mbps)"}, rows);
        out +=
            "\nThe paper's rule (Section 4.2.1): buffers must reach RTT x\n"
            "bandwidth = 1.45 MB on this path; 4 MB was chosen for "
            "headroom.\n";
        return out;
      });
}

// ---------------------------------------------------------------------------
// Extension: MPICH-G2 parallel WAN streams vs MPICH2.
// ---------------------------------------------------------------------------

std::vector<double> g2_sizes() {
  return harness::pow2_sizes(64e3, 64.0 * 1024 * 1024);
}

void register_ext_mpich_g2(ScenarioRegistry& reg) {
  for (TuningLevel level : {TuningLevel::kDefault, TuningLevel::kFullyTuned}) {
    for (const auto& impl : {profiles::mpich2(), profiles::mpich_g2()}) {
      ScenarioSpec spec;
      spec.group = "ext_mpich_g2";
      spec.name = "ext_mpich_g2/" + impl.name + " (" +
                  profiles::to_string(level) + ")";
      spec.description = "WAN bandwidth 64 kB..64 MB -- " + impl.name +
                         ", " + profiles::to_string(level) + " configuration";
      spec.expected_metrics = {"peak_mbps"};
      spec.run = [impl, level](const ScenarioContext&) {
        harness::PingpongOptions options;
        options.sizes = g2_sizes();
        options.rounds = 10;
        const auto points = harness::pingpong_sweep(
            topo::GridSpec::rennes_nancy(1), {0, 0, 1, 0},
            profiles::experiment(impl).tuning(level), options);
        ScenarioResult res;
        double peak = 0;
        for (const auto& p : points) {
          res.add("mbps_" + harness::format_bytes(p.bytes),
                  p.max_bandwidth_mbps, "Mbps");
          peak = std::max(peak, p.max_bandwidth_mbps);
        }
        res.add("peak_mbps", peak, "Mbps");
        res.note = "peak " + harness::format_double(peak, 1) + " Mbps";
        return res;
      };
      reg.add(std::move(spec));
    }
  }

  reg.set_renderer("ext_mpich_g2", [](const auto& specs, const auto& results) {
    const auto sizes = g2_sizes();
    std::vector<std::string> headers{"size"};
    for (const auto* s : specs) headers.push_back(variant_of(s->name));
    std::vector<std::vector<std::string>> rows;
    for (double size : sizes) {
      rows.push_back({harness::format_bytes(size)});
      for (const auto* r : results)
        rows.back().push_back(harness::format_double(
            r->metric("mbps_" + harness::format_bytes(size)), 1));
    }
    std::string out = harness::render_table(
        "Extension: MPICH-G2 parallel WAN streams vs MPICH2 (Mbps)", headers,
        rows);
    out +=
        "\nExpected shape: with default kernels MPICH-G2's 4 streams lift\n"
        "large messages ~4x above the single-connection ceiling; with full\n"
        "tuning both implementations converge near line rate.\n";
    return out;
  });
}

}  // namespace

void register_pingpong_catalog(ScenarioRegistry& reg) {
  register_bandwidth_figure(
      reg,
      {"fig3", "Fig 3: grid (Rennes--Nancy), default parameters", true,
       TuningLevel::kDefault,
       "\nPaper shape: no curve exceeds ~120 Mbps; the 174760 B auto-tuning\n"
       "bound caps the window on the 11.6 ms path.\n"});
  register_bandwidth_figure(
      reg,
      {"fig5", "Fig 5: cluster (Rennes), default parameters", false,
       TuningLevel::kDefault,
       "\nPaper shape: all curves saturate at ~940 Mbps (1 GbE goodput);\n"
       "small dips above 64-256 kB mark each implementation's rendez-vous\n"
       "threshold; GridMPI has none.\n"});
  register_bandwidth_figure(
      reg,
      {"fig6", "Fig 6: grid (Rennes--Nancy), after TCP tuning", true,
       TuningLevel::kTcpTuned,
       "\nPaper shape: peaks ~900 Mbps; half bandwidth around 1 MB (vs 8 "
       "kB\nin the cluster); deep dips above each implementation's eager "
       "limit\n(the rendez-vous handshake costs an extra 11.6 ms round "
       "trip);\nGridMPI closest to raw TCP.\n"});
  register_bandwidth_figure(
      reg,
      {"fig7", "Fig 7: grid (Rennes--Nancy), after TCP tuning + MPI tuning",
       true, TuningLevel::kFullyTuned,
       "\nPaper shape: every curve tracks raw TCP; OpenMPI alone sags at\n"
       "64 MB (32 MB eager-limit cap).\n"});
  register_table4(reg);
  register_table5(reg);
  register_ablation_buffers(reg);
  register_ext_mpich_g2(reg);
}

}  // namespace gridsim::scenarios::detail
