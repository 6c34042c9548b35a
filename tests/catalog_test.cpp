// Catalog completeness: the full scenario-name list is pinned so that a
// refactor cannot silently drop or rename an experiment. A legitimate
// addition updates the list (regenerate with `gridsim campaign --list`).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "scenarios/catalog.hpp"

namespace gridsim::scenarios {
namespace {

const std::vector<std::string>& expected_names() {
  static const std::vector<std::string> names = {
    "fig3/TCP",
    "fig3/MPICH2",
    "fig3/GridMPI",
    "fig3/MPICH-Madeleine",
    "fig3/OpenMPI",
    "fig5/TCP",
    "fig5/MPICH2",
    "fig5/GridMPI",
    "fig5/MPICH-Madeleine",
    "fig5/OpenMPI",
    "fig6/TCP",
    "fig6/MPICH2",
    "fig6/GridMPI",
    "fig6/MPICH-Madeleine",
    "fig6/OpenMPI",
    "fig7/TCP",
    "fig7/MPICH2",
    "fig7/GridMPI",
    "fig7/MPICH-Madeleine",
    "fig7/OpenMPI",
    "table4/TCP",
    "table4/MPICH2",
    "table4/GridMPI",
    "table4/MPICH-Madeleine",
    "table4/OpenMPI",
    "table5/MPICH2",
    "table5/GridMPI",
    "table5/MPICH-Madeleine",
    "table5/OpenMPI",
    "ablation_buffers/62.5kB",
    "ablation_buffers/125kB",
    "ablation_buffers/250kB",
    "ablation_buffers/500kB",
    "ablation_buffers/1000kB",
    "ablation_buffers/1.95312MB",
    "ablation_buffers/3.90625MB",
    "ablation_buffers/7.8125MB",
    "ext_mpich_g2/MPICH2 (default)",
    "ext_mpich_g2/MPICH-G2 (default)",
    "ext_mpich_g2/MPICH2 (fully-tuned)",
    "ext_mpich_g2/MPICH-G2 (fully-tuned)",
    "fig9/TCP",
    "fig9/MPICH2",
    "fig9/GridMPI",
    "fig9/MPICH-Madeleine",
    "fig9/OpenMPI",
    "ablation_pacing/slowstart-off",
    "ablation_pacing/slowstart-on",
    "ablation_pacing/is-off",
    "ablation_pacing/is-on",
    "ablation_tcp_algo/BIC",
    "ablation_tcp_algo/Reno",
    "ablation_tcp_algo/CUBIC",
    "table2/EP",
    "table2/CG",
    "table2/MG",
    "table2/LU",
    "table2/SP",
    "table2/BT",
    "table2/IS",
    "table2/FT",
    "fig10/MPICH2",
    "fig10/GridMPI",
    "fig10/MPICH-Madeleine",
    "fig10/OpenMPI",
    "fig11/MPICH2",
    "fig11/GridMPI",
    "fig11/MPICH-Madeleine",
    "fig11/OpenMPI",
    "fig12/MPICH2",
    "fig12/GridMPI",
    "fig12/MPICH-Madeleine",
    "fig12/OpenMPI",
    "fig13/MPICH2",
    "fig13/GridMPI",
    "fig13/MPICH-Madeleine",
    "fig13/OpenMPI",
    "ablation_collectives/bcast-binomial",
    "ablation_collectives/bcast-vandegeijn",
    "ablation_collectives/bcast-pipeline",
    "ablation_collectives/bcast-hierarchical",
    "ablation_collectives/allreduce-recursive-doubling",
    "ablation_collectives/allreduce-rabenseifner",
    "ablation_collectives/allreduce-hierarchical",
    "ablation_heterogeneity/fabric",
    "ablation_heterogeneity/gateway",
    "ext_placement/CG",
    "ext_placement/MG",
    "ext_placement/LU",
    "ext_placement/SP",
    "ext_placement/BT",
    "ext_traffic_matrix/EP",
    "ext_traffic_matrix/CG",
    "ext_traffic_matrix/MG",
    "ext_traffic_matrix/LU",
    "ext_traffic_matrix/SP",
    "ext_traffic_matrix/BT",
    "ext_traffic_matrix/IS",
    "ext_traffic_matrix/FT",
    "table6/master-nancy",
    "table6/master-rennes",
    "table6/master-sophia",
    "table6/master-toulouse",
    "table7/master-nancy",
    "table7/master-rennes",
    "table7/master-sophia",
    "table7/master-toulouse",
    "robust/loss-MPICH2",
    "robust/loss-GridMPI",
    "robust/loss-MPICH-Madeleine",
    "robust/loss-OpenMPI",
    "robust/jitter-pingpong",
    "robust/jitter-gridmpi",
    "robust/flap-pingpong",
    "robust/flap-ray2mesh",
    "robust/cross-traffic",
    "robust/packet-loss",
    "mc/pingpong-wild-MPICH2",
    "mc/pingpong-wild-GridMPI",
    "mc/bcast-MPICH2",
    "mc/allreduce-MPICH2",
    "mc/bcast-GridMPI",
    "mc/allreduce-GridMPI",
    "mc/cg-MPICH2",
    "mc/cg-GridMPI",
    "mc/is-MPICH2",
    "mc/is-GridMPI",
    "mc/deadlock-fixture",
    "lint/wildcard-race",
    "lint/scripted-order",
    "coll/verify-MPICH2",
    "coll/verify-GridMPI",
    "coll/verify-MPICH-Madeleine",
    "coll/verify-OpenMPI",
    "coll/misrule-fixture",
    "coll/equiv-bcast",
    "coll/equiv-allreduce",
    "coll/equiv-alltoall",
    "coll/equiv-barrier",
    "coll/decision-table",
    "coll/selector-rules",
  };
  return names;
}

TEST(Catalog, PinsEveryScenarioName) {
  const auto& reg = paper_registry();
  std::vector<std::string> actual;
  for (const auto& spec : reg.scenarios()) actual.push_back(spec.name);
  EXPECT_EQ(actual, expected_names());
}

TEST(Catalog, RobustGroupIsComplete) {
  const auto& reg = paper_registry();
  std::set<std::string> robust;
  for (const auto& spec : reg.scenarios())
    if (spec.group == "robust") robust.insert(spec.name);
  const std::set<std::string> expected = {
      "robust/loss-MPICH2",       "robust/loss-GridMPI",
      "robust/loss-MPICH-Madeleine", "robust/loss-OpenMPI",
      "robust/jitter-pingpong",   "robust/jitter-gridmpi",
      "robust/flap-pingpong",     "robust/flap-ray2mesh",
      "robust/cross-traffic",     "robust/packet-loss",
  };
  EXPECT_EQ(robust, expected);
}

TEST(Catalog, McGroupIsComplete) {
  const auto& reg = paper_registry();
  std::set<std::string> mc;
  for (const auto& spec : reg.scenarios())
    if (spec.group == "mc") mc.insert(spec.name);
  const std::set<std::string> expected = {
      "mc/pingpong-wild-MPICH2", "mc/pingpong-wild-GridMPI",
      "mc/bcast-MPICH2",         "mc/bcast-GridMPI",
      "mc/allreduce-MPICH2",     "mc/allreduce-GridMPI",
      "mc/cg-MPICH2",            "mc/cg-GridMPI",
      "mc/is-MPICH2",            "mc/is-GridMPI",
      "mc/deadlock-fixture",
  };
  EXPECT_EQ(mc, expected);
}

TEST(Catalog, CollGroupIsComplete) {
  const auto& reg = paper_registry();
  std::set<std::string> coll;
  for (const auto& spec : reg.scenarios())
    if (spec.group == "coll") coll.insert(spec.name);
  const std::set<std::string> expected = {
      "coll/verify-MPICH2",    "coll/verify-GridMPI",
      "coll/verify-MPICH-Madeleine", "coll/verify-OpenMPI",
      "coll/misrule-fixture",  "coll/equiv-bcast",
      "coll/equiv-allreduce",  "coll/equiv-alltoall",
      "coll/equiv-barrier",    "coll/decision-table",
      "coll/selector-rules",
  };
  EXPECT_EQ(coll, expected);
  // Guideline sweeps are deterministic simulations with no wildcard
  // receives: none of them may declare expected races.
  for (const auto& spec : reg.scenarios()) {
    if (spec.group != "coll") continue;
    EXPECT_FALSE(spec.races_expected) << spec.name;
  }
}

TEST(Catalog, EveryPaperGroupHasARenderer) {
  // `gridsim campaign --filter G --render` is the one path from a paper
  // table/figure (or ablation/extension study) to its text. Without a
  // registered renderer it would fall back to the raw per-cell dump.
  const auto& reg = paper_registry();
  const std::vector<std::string> groups = {
      "fig3",   "fig5",   "fig6",  "fig7",  "table4", "table5", "fig9",
      "table2", "fig10",  "fig11", "fig12", "fig13",  "table6", "table7",
      "ablation_pacing",        "ablation_collectives", "ablation_buffers",
      "ablation_heterogeneity", "ablation_tcp_algo",    "ext_mpich_g2",
      "ext_placement",          "ext_traffic_matrix",
  };
  for (const auto& group : groups)
    EXPECT_NE(reg.renderer(group), nullptr) << group;
}

TEST(Catalog, McScenariosDeclareSmallRankCounts) {
  // `gridsim mc` skips scenarios without a declared rank count within its
  // cap; every model-checking target must therefore declare one, and keep
  // it small enough for exhaustive exploration.
  const auto& reg = paper_registry();
  for (const auto& spec : reg.scenarios()) {
    if (spec.group != "mc") continue;
    EXPECT_GT(spec.ranks, 0) << spec.name;
    EXPECT_LE(spec.ranks, 4) << spec.name;
  }
}

TEST(Catalog, RacesExpectedCoversExactlyTheWildcardWorkloads) {
  // The declaration gates the campaign's lint verdict ("expected-races" vs
  // a failing "races"), so it is pinned like the names: only workloads whose
  // wildcard races are the design (master/worker self-scheduling, the mc
  // racing fixtures) may carry it.
  const auto& reg = paper_registry();
  std::set<std::string> declared;
  for (const auto& spec : reg.scenarios())
    if (spec.races_expected) declared.insert(spec.name);
  const std::set<std::string> expected = {
      "mc/pingpong-wild-MPICH2", "mc/pingpong-wild-GridMPI",
      "mc/deadlock-fixture",     "table6/master-nancy",
      "table6/master-rennes",    "table6/master-sophia",
      "table6/master-toulouse",  "table7/master-nancy",
      "table7/master-rennes",    "table7/master-sophia",
      "table7/master-toulouse",  "robust/flap-ray2mesh",
      "lint/wildcard-race",
  };
  EXPECT_EQ(declared, expected);
}

TEST(Catalog, EverySpecIsWellFormed) {
  const auto& reg = paper_registry();
  for (const auto& spec : reg.scenarios()) {
    EXPECT_FALSE(spec.group.empty()) << spec.name;
    EXPECT_FALSE(spec.description.empty()) << spec.name;
    EXPECT_TRUE(static_cast<bool>(spec.run)) << spec.name;
    // "group/variant" convention: the name starts with its group.
    EXPECT_EQ(spec.name.rfind(spec.group + "/", 0), 0u) << spec.name;
  }
}

}  // namespace
}  // namespace gridsim::scenarios
