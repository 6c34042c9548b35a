// Slow-start scenarios: Fig 9 (cold-connection convergence under bursty
// cross traffic), the pacing ablation (slow start + IS), and the
// congestion-algorithm extension.
#include <algorithm>

#include "harness/npb_campaign.hpp"
#include "harness/pingpong.hpp"
#include "scenarios/catalog_internal.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::scenarios::detail {

namespace {

using harness::ScenarioContext;
using harness::ScenarioRegistry;
using harness::ScenarioResult;
using harness::ScenarioSpec;
using profiles::TuningLevel;

/// The shared-bottleneck topology of the slow-start studies: Rennes--Nancy
/// with 1 Gbps site uplinks so the cross flow actually contends.
topo::GridSpec shared_bottleneck_spec() {
  auto spec = topo::GridSpec::rennes_nancy(2);
  for (auto& site : spec.sites) site.uplink_bps = 1e9;
  return spec;
}

harness::CrossTraffic fig9_cross() {
  harness::CrossTraffic cross;
  cross.burst_bytes = 24e6;
  cross.period = milliseconds(600);
  return cross;
}

/// 200 x 1 MB messages from cold connections; returns the series plus the
/// first time the per-message bandwidth durably exceeds 500 Mbps (-1 =
/// never) and the peak.
struct SlowstartSummary {
  std::vector<harness::SlowstartSample> series;
  double t500_s = -1;
  double peak_mbps = 0;
  double mean_mbps = 0;
};

SlowstartSummary slowstart_run(const profiles::ExperimentConfig& cfg) {
  SlowstartSummary out;
  out.series = harness::slowstart_series(shared_bottleneck_spec(),
                                         {0, 0, 1, 0}, cfg, 1e6, 200,
                                         fig9_cross());
  for (const auto& s : out.series) {
    if (out.t500_s < 0 && s.mbps >= 500) out.t500_s = to_seconds(s.at);
    out.peak_mbps = std::max(out.peak_mbps, s.mbps);
    out.mean_mbps += s.mbps;
  }
  out.mean_mbps /= out.series.empty() ? 1 : double(out.series.size());
  return out;
}

std::string t500_str(double t500_s) {
  return t500_s < 0 ? "never" : harness::format_double(t500_s, 2);
}

// ---------------------------------------------------------------------------
// Fig 9: slow-start convergence per implementation.
// ---------------------------------------------------------------------------

void register_fig9(ScenarioRegistry& reg) {
  for (const auto& impl : profiles_with_tcp()) {
    ScenarioSpec spec;
    spec.group = "fig9";
    spec.name = "fig9/" + impl.name;
    spec.description =
        "slow start under bursty cross traffic -- " + impl.name;
    spec.expected_metrics = {"t500_s", "peak_mbps"};
    spec.run = [impl](const ScenarioContext&) {
      const auto sum = slowstart_run(
          profiles::experiment(impl).tuning(TuningLevel::kFullyTuned));
      ScenarioResult res;
      res.add("t500_s", sum.t500_s, "s");
      res.add("peak_mbps", sum.peak_mbps, "Mbps");
      std::vector<std::vector<std::string>> rows;
      for (const auto& s : sum.series)
        rows.push_back({harness::format_double(to_seconds(s.at), 3),
                        harness::format_double(s.mbps, 1)});
      res.text = harness::render_csv(
          "Fig 9 series: " + impl.name + " (time s, Mbps)", {"t", "mbps"},
          rows);
      res.note = "t_500Mbps " + t500_str(sum.t500_s) + " s, peak " +
                 harness::format_double(sum.peak_mbps, 0) + " Mbps";
      return res;
    };
    reg.add(std::move(spec));
  }

  reg.set_renderer("fig9", [](const auto& specs, const auto& results) {
    const char* paper_t500[] = {"~4-5 (max)", "~4", "~2", "~4", "~4"};
    std::string out;
    std::vector<std::vector<std::string>> summary;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      out += results[i]->text;
      summary.push_back(
          {variant_of(specs[i]->name), t500_str(results[i]->metric("t500_s")),
           paper_t500[i],
           harness::format_double(results[i]->metric("peak_mbps"), 0)});
    }
    out += harness::render_table(
        "Fig 9 summary: time to reach 500 Mbps per-message bandwidth",
        {"impl", "t_500Mbps (s)", "paper (s)", "peak (Mbps)"}, summary);
    out +=
        "\nPaper shape: GridMPI reaches 500 Mbps ~2x sooner than the other\n"
        "implementations (pacing avoids the slow-start overshoot and burst\n"
        "losses); all implementations need seconds, not round trips.\n";
    return out;
  });
}

// ---------------------------------------------------------------------------
// Ablation: GridMPI's software pacing, isolated.
// ---------------------------------------------------------------------------

mpi::ImplProfile pacing_profile(bool pacing) {
  mpi::ImplProfile p = profiles::gridmpi();
  p.name = pacing ? "GridMPI (pacing on)" : "GridMPI (pacing off)";
  p.pacing = pacing;
  return p;
}

void register_ablation_pacing(ScenarioRegistry& reg) {
  for (bool pacing : {false, true}) {
    ScenarioSpec spec;
    spec.group = "ablation_pacing";
    spec.name = std::string("ablation_pacing/slowstart-") +
                (pacing ? "on" : "off");
    spec.description = std::string("Fig 9 slow-start scenario with pacing ") +
                       (pacing ? "on" : "off");
    spec.expected_metrics = {"t500_s"};
    spec.run = [pacing](const ScenarioContext&) {
      const auto sum = slowstart_run(profiles::experiment(pacing_profile(pacing))
                                         .tuning(TuningLevel::kTcpTuned));
      ScenarioResult res;
      res.add("t500_s", sum.t500_s, "s");
      res.cells.push_back(pacing_profile(pacing).name);
      res.cells.push_back(t500_str(sum.t500_s));
      res.note = "t_500Mbps " + t500_str(sum.t500_s) + " s";
      return res;
    };
    reg.add(std::move(spec));
  }
  for (bool pacing : {false, true}) {
    ScenarioSpec spec;
    spec.group = "ablation_pacing";
    spec.name = std::string("ablation_pacing/is-") + (pacing ? "on" : "off");
    spec.description =
        std::string("IS class B on 8+8 nodes with pacing ") +
        (pacing ? "on" : "off");
    spec.expected_metrics = {"runtime_s"};
    spec.run = [pacing](const ScenarioContext&) {
      const auto res_npb = harness::run_npb(
          topo::GridSpec::rennes_nancy(8), 16, npb::Kernel::kIS,
          npb::Class::kB,
          profiles::experiment(pacing_profile(pacing))
              .tuning(TuningLevel::kTcpTuned));
      ScenarioResult res;
      res.add("runtime_s", to_seconds(res_npb.makespan), "s");
      res.cells.push_back(pacing_profile(pacing).name);
      res.cells.push_back(
          harness::format_double(to_seconds(res_npb.makespan), 2));
      res.note = res.cells.back() + " s";
      return res;
    };
    reg.add(std::move(spec));
  }

  reg.set_renderer(
      "ablation_pacing", [](const auto& specs, const auto& results) {
        // Registration order: slowstart off/on, then IS off/on.
        std::string out = harness::render_table(
            "Ablation: pacing vs slow-start convergence",
            {"profile", "t_500Mbps (s)"},
            {{results[0]->cells.at(0), results[0]->cells.at(1)},
             {results[1]->cells.at(0), results[1]->cells.at(1)}});
        out += harness::render_table(
            "Ablation: pacing vs IS class B on 8+8 nodes",
            {"profile", "runtime (s)"},
            {{results[2]->cells.at(0), results[2]->cells.at(1)},
             {results[3]->cells.at(0), results[3]->cells.at(1)}});
        (void)specs;
        return out;
      });
}

// ---------------------------------------------------------------------------
// Extension: congestion-control algorithm under burst losses.
// ---------------------------------------------------------------------------

void register_ablation_tcp_algo(ScenarioRegistry& reg) {
  struct AlgoCase {
    const char* label;
    tcp::CongestionAlgo algo;
  };
  for (const AlgoCase c : {AlgoCase{"BIC", tcp::CongestionAlgo::kBic},
                           AlgoCase{"Reno", tcp::CongestionAlgo::kReno},
                           AlgoCase{"CUBIC", tcp::CongestionAlgo::kCubic}}) {
    ScenarioSpec spec;
    spec.group = "ablation_tcp_algo";
    spec.name = std::string("ablation_tcp_algo/") + c.label;
    spec.description =
        std::string("bulk transfer under burst losses with ") + c.label;
    spec.expected_metrics = {"t500_s", "mean_mbps"};
    const tcp::CongestionAlgo algo = c.algo;
    spec.run = [algo](const ScenarioContext&) {
      const auto sum = slowstart_run(profiles::experiment(profiles::raw_tcp())
                                         .tuning(TuningLevel::kFullyTuned)
                                         .congestion(algo));
      ScenarioResult res;
      res.add("t500_s", sum.t500_s, "s");
      res.add("mean_mbps", sum.mean_mbps, "Mbps");
      res.note = "t_500Mbps " + t500_str(sum.t500_s) + " s, mean " +
                 harness::format_double(sum.mean_mbps, 0) + " Mbps";
      return res;
    };
    reg.add(std::move(spec));
  }

  reg.set_renderer(
      "ablation_tcp_algo", [](const auto& specs, const auto& results) {
        std::vector<std::vector<std::string>> rows;
        for (std::size_t i = 0; i < specs.size(); ++i)
          rows.push_back(
              {variant_of(specs[i]->name),
               t500_str(results[i]->metric("t500_s")),
               harness::format_double(results[i]->metric("mean_mbps"), 0)});
        std::string out = harness::render_table(
            "Extension: congestion control algorithm under burst losses",
            {"algorithm", "t_500Mbps (s)", "mean per-msg bandwidth (Mbps)"},
            rows);
        out +=
            "\nBIC's binary-increase recovery reclaims the window faster "
            "after a\nburst loss than Reno's linear growth; on long-RTT "
            "paths that is the\ndifference between seconds and tens of "
            "seconds of degraded\nbandwidth (the motivation for the "
            "2.6-series kernels adopting it).\n";
        return out;
      });
}

}  // namespace

void register_slowstart_catalog(ScenarioRegistry& reg) {
  register_fig9(reg);
  register_ablation_pacing(reg);
  register_ablation_tcp_algo(reg);
}

}  // namespace gridsim::scenarios::detail
