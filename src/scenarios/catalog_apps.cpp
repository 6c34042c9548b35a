// ray2mesh scenarios: Tables 6 and 7 — rays per cluster and phase times as
// a function of the master's location on the four-cluster deployment.
#include "apps/ray2mesh.hpp"
#include "scenarios/catalog_internal.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::scenarios::detail {

namespace {

using harness::ScenarioContext;
using harness::ScenarioRegistry;
using harness::ScenarioResult;
using harness::ScenarioSpec;

// Site order in our spec: rennes(0), nancy(1), sophia(2), toulouse(3);
// Tables 6 and 7 list Nancy, Rennes, Sophia, Toulouse.
constexpr int kTableOrder[4] = {1, 0, 2, 3};

profiles::ExperimentConfig ray2mesh_config() {
  return profiles::experiment(profiles::gridmpi())
      .tuning(profiles::TuningLevel::kTcpTuned);
}

apps::Ray2MeshResult run_for_master(int master_site) {
  return apps::run_ray2mesh(topo::GridSpec::ray2mesh_quad(8), master_site,
                            ray2mesh_config());
}

void register_table6(ScenarioRegistry& reg) {
  const auto spec_topo = topo::GridSpec::ray2mesh_quad(8);
  for (int col = 0; col < 4; ++col) {
    const int master_site = kTableOrder[col];
    const std::string master_name =
        spec_topo.sites[static_cast<size_t>(master_site)].name;
    ScenarioSpec spec;
    spec.group = "table6";
    spec.name = "table6/master-" + master_name;
    spec.description =
        "ray2mesh rays per cluster, master at " + master_name;
    for (const auto& site : spec_topo.sites)
      spec.expected_metrics.push_back("rays_" + site.name);
    // Master/worker self-scheduling: the workers' result messages race at
    // the master's wildcard receive by design (that is the load balancer).
    spec.races_expected = true;
    spec.run = [master_site](const ScenarioContext&) {
      const auto topo = topo::GridSpec::ray2mesh_quad(8);
      const auto r = run_for_master(master_site);
      ScenarioResult res;
      for (std::size_t site = 0; site < topo.sites.size(); ++site) {
        // Table 6 reports the *average rays per node* of each cluster (the
        // paper's columns sum to 1M / 8 nodes).
        res.add("rays_" + topo.sites[site].name,
                double(r.rays_per_site[site]) / topo.sites[site].nodes,
                "rays/node");
      }
      return res;
    };
    reg.add(std::move(spec));
  }

  reg.set_renderer("table6", [](const auto& specs, const auto& results) {
    const double paper[4][4] = {
        // master: Nancy   Rennes   Sophia   Toulouse   (cluster rows)
        {29650, 27937.5, 29343.75, 28781.25},  // Nancy
        {30225, 30625, 29437.5, 29468.75},     // Rennes
        {35375, 36562.5, 37343.75, 36437.5},   // Sophia
        {29750, 29875, 28875, 30312.5},        // Toulouse
    };
    const auto topo = topo::GridSpec::ray2mesh_quad(8);
    std::vector<std::string> headers{"cluster"};
    std::vector<std::vector<std::string>> rows(4);
    for (int row = 0; row < 4; ++row)
      rows[static_cast<size_t>(row)].push_back(
          topo.sites[static_cast<size_t>(kTableOrder[row])].name);
    for (std::size_t col = 0; col < specs.size(); ++col) {
      headers.push_back("master=" +
                        topo.sites[static_cast<size_t>(kTableOrder[col])]
                            .name);
      for (int row = 0; row < 4; ++row) {
        const auto& site_name =
            topo.sites[static_cast<size_t>(kTableOrder[row])].name;
        rows[static_cast<size_t>(row)].push_back(
            harness::format_double(
                results[col]->metric("rays_" + site_name), 0) +
            " (" + harness::format_double(paper[row][col], 0) + ")");
      }
    }
    std::string out = harness::render_table(
        "Table 6: rays computed per cluster vs master location -- model "
        "(paper)",
        headers, rows);
    out +=
        "\nPaper shape: Sophia (fastest nodes) computes the most rays; a\n"
        "cluster computes slightly more when the master is local.\n";
    return out;
  });
}

void register_table7(ScenarioRegistry& reg) {
  const auto spec_topo = topo::GridSpec::ray2mesh_quad(8);
  for (int col = 0; col < 4; ++col) {
    const int master_site = kTableOrder[col];
    const std::string master_name =
        spec_topo.sites[static_cast<size_t>(master_site)].name;
    ScenarioSpec spec;
    spec.group = "table7";
    spec.name = "table7/master-" + master_name;
    spec.description = "ray2mesh phase times, master at " + master_name;
    spec.expected_metrics = {"compute_s", "merge_s", "total_s"};
    spec.races_expected = true;  // same self-scheduling races as table6
    spec.run = [master_site](const ScenarioContext&) {
      const auto r = run_for_master(master_site);
      ScenarioResult res;
      res.add("compute_s", to_seconds(r.compute_time), "s");
      res.add("merge_s", to_seconds(r.merge_time), "s");
      res.add("total_s", to_seconds(r.total_time), "s");
      res.note = "total " + harness::format_double(to_seconds(r.total_time),
                                                   1) +
                 " s";
      return res;
    };
    reg.add(std::move(spec));
  }

  reg.set_renderer("table7", [](const auto& specs, const auto& results) {
    const double paper_comp[4] = {185.11, 185.16, 186.03, 186.97};
    const double paper_merge[4] = {168.85, 162.59, 168.38, 165.99};
    const double paper_total[4] = {361.52, 355.14, 361.72, 360.24};
    const auto topo = topo::GridSpec::ray2mesh_quad(8);
    std::vector<std::string> headers{"phase"};
    std::vector<std::vector<std::string>> rows{
        {"compute (s)"}, {"paper comp"}, {"merge (s)"}, {"paper merge"},
        {"total (s)"},   {"paper total"}};
    for (std::size_t col = 0; col < specs.size(); ++col) {
      headers.push_back(
          "master=" +
          topo.sites[static_cast<size_t>(kTableOrder[col])].name);
      rows[0].push_back(
          harness::format_double(results[col]->metric("compute_s"), 1));
      rows[1].push_back(harness::format_double(paper_comp[col], 1));
      rows[2].push_back(
          harness::format_double(results[col]->metric("merge_s"), 1));
      rows[3].push_back(harness::format_double(paper_merge[col], 1));
      rows[4].push_back(
          harness::format_double(results[col]->metric("total_s"), 1));
      rows[5].push_back(harness::format_double(paper_total[col], 1));
    }
    std::string out = harness::render_table(
        "Table 7: ray2mesh phase times vs master location", headers, rows);
    out +=
        "\nPaper shape: compute ~185 s and total ~360 s regardless of the\n"
        "master's location -- the task placement does not matter much.\n";
    return out;
  });
}

}  // namespace

void register_apps_catalog(ScenarioRegistry& reg) {
  register_table6(reg);
  register_table7(reg);
}

}  // namespace gridsim::scenarios::detail
