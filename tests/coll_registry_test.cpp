// Unit tests for the collective-algorithm registry, the declarative
// selector and the guideline harness: the API surface `gridsim coll` and
// the builder's `.selector()` knob sit on. The registered algorithm set is
// pinned here — adding or renaming an algorithm is an API change and must
// update these expectations (and docs/collectives.md).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "collectives/guidelines.hpp"
#include "collectives/registry.hpp"
#include "collectives/selector.hpp"
#include "profiles/profiles.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::coll {
namespace {

using mpi::CollOp;
using mpi::CollRule;
using mpi::TopoScope;

// --- registry introspection ----------------------------------------------

TEST(Registry, PinsTheAlgorithmSet) {
  const auto& reg = AlgorithmRegistry::instance();
  EXPECT_EQ(reg.bcast().size(), 4u);
  EXPECT_EQ(reg.allreduce().size(), 3u);
  EXPECT_EQ(reg.alltoall().size(), 3u);
  EXPECT_EQ(reg.barrier().size(), 2u);
  EXPECT_EQ(reg.names("bcast"),
            (std::vector<std::string>{"binomial", "scatter-ring",
                                      "hierarchical", "pipeline"}));
  EXPECT_EQ(reg.names("allreduce"),
            (std::vector<std::string>{"recursive-doubling", "rabenseifner",
                                      "hierarchical"}));
  EXPECT_EQ(reg.names("alltoall"),
            (std::vector<std::string>{"pairwise", "ring", "bruck"}));
  EXPECT_EQ(reg.names("barrier"),
            (std::vector<std::string>{"dissemination", "tree"}));
  EXPECT_THROW(reg.names("gather"), std::invalid_argument);
}

TEST(Registry, FindsByName) {
  const auto& reg = AlgorithmRegistry::instance();
  const auto* ring = reg.find_bcast("scatter-ring");
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(ring->name, "scatter-ring");
  EXPECT_EQ(reg.find_bcast("vandegeijn"), nullptr);  // one name each
  EXPECT_EQ(reg.find_bcast("quantum"), nullptr);
  EXPECT_EQ(reg.find_allreduce("binomial"), nullptr);  // wrong operation
}

TEST(Registry, EntriesCarryMetadataAndRunners) {
  const auto& reg = AlgorithmRegistry::instance();
  for (const auto& a : reg.bcast()) {
    EXPECT_FALSE(a.description.empty()) << a.name;
    EXPECT_NE(a.run, nullptr) << a.name;
  }
  // Site-splitting algorithms are the WAN-aware ones.
  EXPECT_TRUE(reg.find_bcast("hierarchical")->wan_aware);
  EXPECT_FALSE(reg.find_bcast("binomial")->wan_aware);
  EXPECT_TRUE(reg.find_allreduce("hierarchical")->wan_aware);
}

// --- selector decision rules ---------------------------------------------

/// The default decision table with `ahead` in front of it.
mpi::CollRules ahead_of_default(const mpi::CollRules& ahead) {
  return *mpi::prepend(ahead, *mpi::ImplProfile{}.collectives);
}

TEST(Selector, DefaultTablesHonourTheCutoffs) {
  const mpi::CollRules table = *profiles::mpich2().collectives;
  auto chosen = [&table](CollOp op, double bytes) {
    return Selector::pick(table, op, bytes, 16, 1).algo;
  };
  EXPECT_EQ(chosen(CollOp::kBcast, kBcastSmallCutoff), "binomial");
  EXPECT_EQ(chosen(CollOp::kBcast, kBcastSmallCutoff + 1), "scatter-ring");
  EXPECT_EQ(chosen(CollOp::kAllreduce, kAllreduceSmallCutoff),
            "recursive-doubling");
  EXPECT_EQ(chosen(CollOp::kAllreduce, kAllreduceSmallCutoff + 1),
            "rabenseifner");
}

TEST(Selector, DefaultTablesAreTotal) {
  // The default table and every shipped profile's end each operation with
  // an unbounded rule, so pick never throws on them.
  std::vector<mpi::ImplProfile> impls = profiles::all_implementations();
  impls.push_back(profiles::raw_tcp());
  impls.push_back(profiles::mpich_g2());
  impls.push_back(mpi::ImplProfile{});
  for (const auto& p : impls) {
    for (auto op : {CollOp::kBcast, CollOp::kAllreduce, CollOp::kAlltoall,
                    CollOp::kBarrier}) {
      const auto rules = Selector::effective_rules(*p.collectives, op);
      ASSERT_FALSE(rules.empty()) << p.name << " " << mpi::to_string(op);
      EXPECT_TRUE(Selector::matches(rules.back(), op, 1e18, 1 << 20, 64))
          << p.name << " " << mpi::to_string(op);
      EXPECT_TRUE(Selector::matches(rules.back(), op, 0, 1, 1))
          << p.name << " " << mpi::to_string(op);
    }
  }
}

TEST(Selector, PickThrowsWhenNoRuleMatches) {
  const mpi::CollRules table = {
      CollRule{.op = CollOp::kBcast, .algo = "binomial", .max_bytes = 1e3}};
  EXPECT_EQ(Selector::pick(table, CollOp::kBcast, 500, 16, 1).algo,
            "binomial");
  // A gap in the size bands, an operation with no rule, an empty table.
  EXPECT_THROW(Selector::pick(table, CollOp::kBcast, 2e3, 16, 1),
               std::invalid_argument);
  try {
    Selector::pick(table, CollOp::kAllreduce, 500, 16, 1);
    ADD_FAILURE() << "no allreduce rule, yet pick returned";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("allreduce"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(Selector::pick({}, CollOp::kBarrier, 0, 16, 1),
               std::invalid_argument);
}

TEST(Selector, FirstMatchingCustomRuleWins) {
  const mpi::CollRules table = ahead_of_default(
      {CollRule{.op = CollOp::kBcast, .algo = "pipeline", .max_bytes = 1e3},
       CollRule{.op = CollOp::kBcast, .algo = "hierarchical"}});
  EXPECT_EQ(Selector::pick(table, CollOp::kBcast, 500, 16, 1).algo,
            "pipeline");
  EXPECT_EQ(Selector::pick(table, CollOp::kBcast, 2e3, 16, 1).algo,
            "hierarchical");
  // Other operations fall through to the defaults untouched.
  EXPECT_EQ(Selector::pick(table, CollOp::kAllreduce, 500, 16, 1).algo,
            "recursive-doubling");
}

TEST(Selector, RankBandsAndFallback) {
  const mpi::CollRules table = ahead_of_default(
      {CollRule{.op = CollOp::kAlltoall, .algo = "bruck", .min_ranks = 32}});
  EXPECT_EQ(Selector::pick(table, CollOp::kAlltoall, 1e3, 64, 1).algo,
            "bruck");
  // Below the rank band the next rule decides: the default's pairwise.
  EXPECT_EQ(Selector::pick(table, CollOp::kAlltoall, 1e3, 8, 1).algo,
            "pairwise");
}

TEST(Selector, TopologyScopeNeedsSites) {
  const mpi::CollRules table =
      ahead_of_default({CollRule{.op = CollOp::kBcast,
                                 .algo = "hierarchical",
                                 .topo = TopoScope::kMultiSite},
                        CollRule{.op = CollOp::kBcast,
                                 .algo = "scatter-ring",
                                 .topo = TopoScope::kSingleSite}});
  EXPECT_TRUE(Selector::needs_sites(table, CollOp::kBcast));
  EXPECT_FALSE(Selector::needs_sites(table, CollOp::kAllreduce));
  EXPECT_FALSE(
      Selector::needs_sites(*profiles::mpich_g2().collectives, CollOp::kBcast));
  EXPECT_EQ(Selector::pick(table, CollOp::kBcast, 1e6, 16, 2).algo,
            "hierarchical");
  EXPECT_EQ(Selector::pick(table, CollOp::kBcast, 1e6, 16, 1).algo,
            "scatter-ring");
}

TEST(Selector, EffectiveRulesListsCustomThenDefaults) {
  const CollRule custom{.op = CollOp::kBcast, .algo = "pipeline"};
  const mpi::CollRules table = *profiles::experiment(profiles::mpich2())
                                     .selector({custom})
                                     .build()
                                     .profile.collectives;
  // The builder's rule, then MPICH2's own bcast rules, in order.
  mpi::CollRules expected = {custom};
  for (const CollRule& r : Selector::effective_rules(
           *profiles::mpich2().collectives, CollOp::kBcast))
    expected.push_back(r);
  EXPECT_EQ(Selector::effective_rules(table, CollOp::kBcast), expected);
  ASSERT_EQ(expected.size(), 3u);
  EXPECT_EQ(expected[1].algo, "binomial");
  EXPECT_EQ(expected[2].algo, "scatter-ring");
}

// --- the builder's collective knob -------------------------------------------

TEST(BuilderKnobs, SelectorKnobInstallsRules) {
  const mpi::CollTable base = profiles::gridmpi().collectives;
  const profiles::ExperimentConfig cfg =
      profiles::experiment(profiles::gridmpi())
          .selector({CollRule{.op = CollOp::kBcast, .algo = "pipeline"}});
  const mpi::CollRules& table = *cfg.profile.collectives;
  ASSERT_EQ(table.size(), base->size() + 1);
  EXPECT_EQ(table.front().algo, "pipeline");
  EXPECT_EQ(mpi::CollRules(table.begin() + 1, table.end()), *base);
  // A new table: the profile's own, shared by its copies, is untouched.
  EXPECT_EQ(profiles::gridmpi().collectives, base);
  EXPECT_EQ(base->front().algo, "binomial");
}

TEST(BuilderKnobs, SelectorOverridesOnlyItsOwnBands) {
  // A pipeline band for 64 kB..1 MB broadcasts: every other size, and
  // every other operation, keeps MPICH2's choice and cutoffs.
  const mpi::CollRules base = *profiles::mpich2().collectives;
  const mpi::CollRules table =
      *profiles::experiment(profiles::mpich2())
          .selector({CollRule{.op = CollOp::kBcast,
                              .algo = "pipeline",
                              .min_bytes = 64e3,
                              .max_bytes = 1e6}})
          .tuning(profiles::TuningLevel::kFullyTuned)
          .build()
          .profile.collectives;
  auto chosen = [&table](CollOp op, double bytes) {
    return Selector::pick(table, op, bytes, 16, 2).algo;
  };
  EXPECT_EQ(chosen(CollOp::kBcast, 1e3), "binomial");
  EXPECT_EQ(chosen(CollOp::kBcast, kBcastSmallCutoff), "binomial");
  EXPECT_EQ(chosen(CollOp::kBcast, kBcastSmallCutoff + 1), "scatter-ring");
  EXPECT_EQ(chosen(CollOp::kBcast, 64e3 - 1), "scatter-ring");
  EXPECT_EQ(chosen(CollOp::kBcast, 64e3), "pipeline");
  EXPECT_EQ(chosen(CollOp::kBcast, 1e6), "pipeline");
  EXPECT_EQ(chosen(CollOp::kBcast, 1e6 + 1), "scatter-ring");
  EXPECT_EQ(chosen(CollOp::kAllreduce, kAllreduceSmallCutoff),
            "recursive-doubling");
  EXPECT_EQ(chosen(CollOp::kAllreduce, kAllreduceSmallCutoff + 1),
            "rabenseifner");
  for (auto op : {CollOp::kAllreduce, CollOp::kAlltoall, CollOp::kBarrier})
    EXPECT_EQ(Selector::effective_rules(table, op),
              Selector::effective_rules(base, op))
        << mpi::to_string(op);
}

// --- guideline harness -----------------------------------------------------

TEST(Guidelines, CleanTableHasNoViolationsOnTheCluster) {
  GuidelineOptions opt;
  opt.sizes = {1e3, 64e3};  // quick probe set, spans the bcast cutoff
  const auto report =
      verify_guidelines(topo::GridSpec::single_cluster(16), "cluster",
                        profiles::mpich2(), tcp::KernelTunables::grid_tuned(),
                        opt);
  EXPECT_EQ(report.violations(), 0) << "first violated cell: " << [&] {
    for (const auto& c : report.cells)
      if (c.violated) return c.guideline + " " + c.detail;
    return std::string();
  }();
  // 2 sizes -> 3 composition cells each + 2 monotone cells for the pair.
  EXPECT_EQ(report.cells.size(), 8u);
}

TEST(Guidelines, MisruledSelectorIsCaughtOnTheCyclicGrid) {
  const mpi::ImplProfile impl = profiles::experiment(profiles::mpich2())
                                    .selector(misruled_selector())
                                    .build()
                                    .profile;
  GuidelineOptions opt;
  opt.sizes = {1e3, 64e3};
  opt.cyclic = true;  // interleave ranks across sites: the adversarial order
  const auto report =
      verify_guidelines(topo::GridSpec::rennes_nancy(8), "grid-cyclic", impl,
                        tcp::KernelTunables::grid_tuned(), opt);
  ASSERT_GT(report.violations(), 0);
  bool monotone_bcast = false;
  for (const auto& c : report.cells)
    if (c.violated && c.guideline == "monotone-bcast") monotone_bcast = true;
  EXPECT_TRUE(monotone_bcast)
      << "misrule must trip the named monotone-bcast guideline";
}

TEST(Guidelines, JsonReportCreatesParentDirectories) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "coll-json-test";
  std::filesystem::remove_all(dir);
  const std::filesystem::path out = dir / "nested" / "report.json";
  GuidelineReport report;
  report.cells.push_back(GuidelineCell{.guideline = "monotone-bcast",
                                       .profile = "MPICH2",
                                       .topology = "grid-cyclic",
                                       .bytes = 1e3,
                                       .lhs_s = 2,
                                       .rhs_s = 1,
                                       .ratio = 2,
                                       .tolerance = 1.25,
                                       .violated = true,
                                       .detail = "\"quoted\""});
  ASSERT_TRUE(write_coll_json(out.string(), report));
  ASSERT_TRUE(std::filesystem::exists(out));
  std::ifstream in(out);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"gridsim-coll/1\""), std::string::npos);
  EXPECT_NE(text.find("\"violations\": 1"), std::string::npos);
  EXPECT_NE(text.find("monotone-bcast"), std::string::npos);
  EXPECT_NE(text.find("\\\"quoted\\\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gridsim::coll
