// Closed-form max-min allocations on hand-built topologies, pinned for both
// the incremental solver and the global-resolve oracle, plus unit coverage
// of the incremental machinery (fast path, component isolation, the
// bipartite index) that the differential churn suite exercises only
// statistically.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "simcore/simulation.hpp"
#include "simnet/maxmin.hpp"
#include "simnet/network.hpp"

namespace gridsim::net {
namespace {

using namespace gridsim::literals;

// Every closed-form case runs under both solvers: the expected rates are
// what progressive filling computes, so any disagreement is a solver bug,
// not a tolerance artifact.
class MaxMinClosedForm : public ::testing::TestWithParam<SolverMode> {
 protected:
  Simulation sim;
  Network net{sim};
  void SetUp() override { net.set_solver_mode(GetParam()); }
};

TEST_P(MaxMinClosedForm, SingleBottleneckEqualShares) {
  // Three uncapped flows on one 90 MB/s link: 30 MB/s each.
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  const LinkId ab = net.add_link("ab", 9e7, 1_ms, 1e6);
  net.add_route(a, b, {ab});
  std::vector<FlowId> flows;
  for (int i = 0; i < 3; ++i)
    flows.push_back(net.start_flow(a, b, 1e12, kUnlimitedRate, nullptr));
  for (FlowId f : flows) EXPECT_DOUBLE_EQ(net.flow_info(f).rate, 3e7);
  EXPECT_DOUBLE_EQ(net.link_utilization(ab), 9e7);
}

TEST_P(MaxMinClosedForm, ChainSharesTheMiddleLink) {
  // l0 --- l1 --- l2, all 90 MB/s. f0 crosses {l0,l1}, f1 crosses {l1,l2},
  // f2 crosses {l1} only. l1 carries three flows -> everyone freezes at
  // 30 MB/s (no tighter constraint exists).
  const HostId h0 = net.add_host("h0");
  const HostId h1 = net.add_host("h1");
  const HostId h2 = net.add_host("h2");
  const LinkId l0 = net.add_link("l0", 9e7, 1_ms, 1e6);
  const LinkId l1 = net.add_link("l1", 9e7, 1_ms, 1e6);
  const LinkId l2 = net.add_link("l2", 9e7, 1_ms, 1e6);
  net.add_route(h0, h1, {l0, l1});
  net.add_route(h1, h2, {l1, l2});
  net.add_route(h0, h2, {l1});
  const FlowId f0 = net.start_flow(h0, h1, 1e12, kUnlimitedRate, nullptr);
  const FlowId f1 = net.start_flow(h1, h2, 1e12, kUnlimitedRate, nullptr);
  const FlowId f2 = net.start_flow(h0, h2, 1e12, kUnlimitedRate, nullptr);
  EXPECT_DOUBLE_EQ(net.flow_info(f0).rate, 3e7);
  EXPECT_DOUBLE_EQ(net.flow_info(f1).rate, 3e7);
  EXPECT_DOUBLE_EQ(net.flow_info(f2).rate, 3e7);
  // The outer links have 60 MB/s slack each; the middle link has none.
  EXPECT_DOUBLE_EQ(net.flow_info(f0).achievable_rate, 3e7);
  EXPECT_DOUBLE_EQ(net.link_utilization(l0), 3e7);
  EXPECT_DOUBLE_EQ(net.link_utilization(l1), 9e7);
}

TEST_P(MaxMinClosedForm, CrossTrafficStarUplinkThenWanBottleneck) {
  // Four senders, each behind a 40 MB/s uplink, all crossing a 100 MB/s
  // WAN. Four flows: WAN share 25 MB/s is the bottleneck. After two cancel,
  // the uplinks (40 < 100/2) become the bottleneck.
  const LinkId wan = net.add_link("wan", 1e8, 5_ms, 1e6);
  std::vector<FlowId> flows;
  std::vector<LinkId> ups;
  for (int i = 0; i < 4; ++i) {
    const std::string s = std::to_string(i);
    const HostId src = net.add_host("s" + s);
    const HostId dst = net.add_host("r" + s);
    ups.push_back(net.add_link("up" + s, 4e7, 1_ms, 1e6));
    net.add_route(src, dst, {ups.back(), wan});
    flows.push_back(net.start_flow(src, dst, 1e12, kUnlimitedRate, nullptr));
  }
  for (FlowId f : flows) EXPECT_DOUBLE_EQ(net.flow_info(f).rate, 2.5e7);
  EXPECT_DOUBLE_EQ(net.link_utilization(wan), 1e8);
  net.cancel_flow(flows[2]);
  net.cancel_flow(flows[3]);
  EXPECT_DOUBLE_EQ(net.flow_info(flows[0]).rate, 4e7);
  EXPECT_DOUBLE_EQ(net.flow_info(flows[1]).rate, 4e7);
  EXPECT_DOUBLE_EQ(net.link_utilization(wan), 8e7);
  EXPECT_DOUBLE_EQ(net.link_utilization(ups[0]), 4e7);
}

TEST_P(MaxMinClosedForm, CapLimitedFlowDonatesItsShare) {
  // One 100 MB/s link, three flows, one capped at 10 MB/s: the capped flow
  // freezes first and the other two split the 90 MB/s residual.
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  const LinkId ab = net.add_link("ab", 1e8, 1_ms, 1e6);
  net.add_route(a, b, {ab});
  const FlowId capped = net.start_flow(a, b, 1e12, 1e7, nullptr);
  const FlowId f1 = net.start_flow(a, b, 1e12, kUnlimitedRate, nullptr);
  const FlowId f2 = net.start_flow(a, b, 1e12, kUnlimitedRate, nullptr);
  EXPECT_DOUBLE_EQ(net.flow_info(capped).rate, 1e7);
  EXPECT_DOUBLE_EQ(net.flow_info(f1).rate, 4.5e7);
  EXPECT_DOUBLE_EQ(net.flow_info(f2).rate, 4.5e7);
  // Raising the cap past the fair level re-levels everyone.
  net.set_rate_cap(capped, kUnlimitedRate);
  const double third = std::max(0.0, 1e8) / 3;
  EXPECT_DOUBLE_EQ(net.flow_info(capped).rate, third);
  EXPECT_DOUBLE_EQ(net.flow_info(f1).rate, third);
}

TEST_P(MaxMinClosedForm, LinklessFlowRunsAtItsCap) {
  // A same-host (loopback) route crosses no links: the flow is constrained
  // only by its cap.
  const HostId a = net.add_host("a");
  net.add_route(a, a, {});
  SimTime done = -1;
  net.start_flow(a, a, 1e6, 1e8, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, 10_ms);  // 1 MB at 100 MB/s
}

TEST_P(MaxMinClosedForm, TransferTimesMatchAllocations) {
  // Integration over time, not just instantaneous rates: short flow done at
  // 1 s (50 MB at 50 MB/s), long flow speeds up to 100 MB/s afterwards.
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  const LinkId ab = net.add_link("ab", 1e8, 1_ms, 1e6);
  net.add_route(a, b, {ab});
  std::vector<SimTime> done(2, -1);
  net.start_flow(a, b, 5e7, kUnlimitedRate, [&] { done[0] = sim.now(); });
  net.start_flow(a, b, 1e8, kUnlimitedRate, [&] { done[1] = sim.now(); });
  sim.run();
  EXPECT_EQ(done[0], 1_s);
  EXPECT_EQ(done[1], 1500_ms);
}

TEST_P(MaxMinClosedForm, StaleIdCannotReachTheFlowReusingItsSlot) {
  // Flow A finishes and flow B starts in A's recycled slot. A's id must not
  // name B: queries through it see nothing, and mutations through it
  // (including A's own superseded completion check, still queued at 10 s)
  // leave B alone.
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  const LinkId ab = net.add_link("ab", 1e8, 1_ms, 1e6);
  net.add_route(a, b, {ab});
  int a_done = 0;
  const FlowId fa = net.start_flow(a, b, 1e6, 1e5, [&] { ++a_done; });
  net.set_rate_cap(fa, kUnlimitedRate);  // 1 MB at 100 MB/s: done at 10 ms
  sim.run_until(10_ms);
  ASSERT_EQ(a_done, 1);

  std::vector<SimTime> b_done;
  const FlowId fb = net.start_flow(a, b, 1e9, kUnlimitedRate,
                                   [&] { b_done.push_back(sim.now()); });
  ASSERT_NE(fb, fa);
  ASSERT_EQ(static_cast<std::uint32_t>(fb), static_cast<std::uint32_t>(fa))
      << "B should reuse A's slot";

  EXPECT_FALSE(net.flow_active(fa));
  EXPECT_TRUE(net.flow_active(fb));
  const FlowInfo stale = net.flow_info(fa);
  EXPECT_EQ(stale.rate, 0);
  EXPECT_EQ(stale.achievable_rate, 0);
  EXPECT_EQ(stale.remaining, 0);

  net.set_rate_cap(fa, 1e3);
  EXPECT_DOUBLE_EQ(net.flow_info(fb).rate, 1e8);
  net.cancel_flow(fa);
  EXPECT_TRUE(net.flow_active(fb));
  EXPECT_EQ(net.active_flow_count(), 1);

  sim.run();
  // 1 GB at 100 MB/s from 10 ms, exactly once.
  EXPECT_EQ(b_done, (std::vector<SimTime>{10_s + 10_ms}));
  EXPECT_EQ(a_done, 1);
  EXPECT_FALSE(net.flow_active(fb));
  EXPECT_EQ(net.active_flow_count(), 0);
}

INSTANTIATE_TEST_SUITE_P(BothSolvers, MaxMinClosedForm,
                         ::testing::Values(SolverMode::kIncremental,
                                           SolverMode::kGlobalOracle),
                         [](const auto& param_info) {
                           return param_info.param == SolverMode::kIncremental
                                      ? "incremental"
                                      : "oracle";
                         });

// ---------------------------------------------------------------------------
// Incremental-machinery unit tests (solver stats, component isolation, the
// bipartite index) — these run on the incremental solver only.
// ---------------------------------------------------------------------------

TEST(MaxMinIncremental, UncontendedFlowTakesFastPath) {
  Simulation sim;
  Network net(sim);
  net.set_solver_mode(SolverMode::kIncremental);
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  const LinkId ab = net.add_link("ab", 1e8, 1_ms, 1e6);
  net.add_route(a, b, {ab});
  const FlowId f = net.start_flow(a, b, 1e12, 2e7, nullptr);
  const auto& stats = net.solver_stats();
  EXPECT_EQ(stats.solves, 1u);
  EXPECT_EQ(stats.fast_solves, 1u);  // alone on its link
  EXPECT_DOUBLE_EQ(net.flow_info(f).rate, 2e7);
  EXPECT_DOUBLE_EQ(net.flow_info(f).achievable_rate, 1e8);
  // A second flow on the same link forces the general path.
  net.start_flow(a, b, 1e12, kUnlimitedRate, nullptr);
  EXPECT_EQ(stats.solves, 2u);
  EXPECT_EQ(stats.fast_solves, 1u);
  EXPECT_EQ(stats.peak_component_flows, 2u);
}

TEST(MaxMinIncremental, DisjointComponentsDoNotTouchEachOther) {
  Simulation sim;
  Network net(sim);
  net.set_solver_mode(SolverMode::kIncremental);
  // Two independent dumbbells; mutating one must not enlarge the dirty
  // component beyond it or perturb the other's rates.
  std::vector<FlowId> flows;
  for (int g = 0; g < 2; ++g) {
    const std::string s = std::to_string(g);
    const HostId src = net.add_host("s" + s);
    const HostId dst = net.add_host("r" + s);
    const LinkId l = net.add_link("l" + s, 1e8, 1_ms, 1e6);
    net.add_route(src, dst, {l});
    flows.push_back(net.start_flow(src, dst, 1e12, kUnlimitedRate, nullptr));
    flows.push_back(net.start_flow(src, dst, 1e12, kUnlimitedRate, nullptr));
  }
  EXPECT_EQ(net.solver_stats().peak_component_flows, 2u);
  const double other_before = net.flow_info(flows[2]).rate;
  net.set_rate_cap(flows[0], 1e7);
  // Still 2: the re-solve saw only dumbbell 0.
  EXPECT_EQ(net.solver_stats().peak_component_flows, 2u);
  EXPECT_EQ(net.flow_info(flows[2]).rate, other_before);  // bit-identical
  EXPECT_DOUBLE_EQ(net.flow_info(flows[1]).rate, 9e7);
}

TEST(MaxMinIncremental, RouteCrossingALinkTwiceIsRejected) {
  Simulation sim;
  Network net(sim);
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  const LinkId ab = net.add_link("ab", 1e8, 1_ms, 1e6);
  EXPECT_THROW(net.add_route(a, b, {ab, ab}), std::invalid_argument);
}

TEST(MaxMinIncremental, SolverModeSwitchRequiresIdleNetwork) {
  Simulation sim;
  Network net(sim);
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  const LinkId ab = net.add_link("ab", 1e8, 1_ms, 1e6);
  net.add_route(a, b, {ab});
  net.start_flow(a, b, 1e12, kUnlimitedRate, nullptr);
  EXPECT_DEATH(net.set_solver_mode(SolverMode::kGlobalOracle),
               "no flows are active");
}

TEST(MaxMinIncremental, LinkUtilizationMatchesFlowInfoSum) {
  // Regression: link_utilization() must read the persistent per-link flow
  // list, i.e. agree exactly with summing the flows' own reported rates.
  Simulation sim;
  Network net(sim);
  const LinkId wan = net.add_link("wan", 1e8, 5_ms, 1e6);
  std::vector<FlowId> flows;
  std::vector<LinkId> ups;
  for (int i = 0; i < 5; ++i) {
    const std::string s = std::to_string(i);
    const HostId src = net.add_host("s" + s);
    const HostId dst = net.add_host("r" + s);
    ups.push_back(net.add_link("up" + s, 4e7, 1_ms, 1e6));
    net.add_route(src, dst, {ups.back(), wan});
    const double cap = (i % 2 == 0) ? 1.5e7 : kUnlimitedRate;
    flows.push_back(net.start_flow(src, dst, 1e12, cap, nullptr));
  }
  double sum = 0;
  for (FlowId f : flows) sum += net.flow_info(f).rate;
  EXPECT_EQ(net.link_utilization(wan), sum);
  for (std::size_t i = 0; i < ups.size(); ++i)
    EXPECT_EQ(net.link_utilization(ups[i]), net.flow_info(flows[i]).rate);
  net.cancel_flow(flows[1]);
  sum = 0;
  for (FlowId f : flows)
    if (net.flow_active(f)) sum += net.flow_info(f).rate;
  EXPECT_EQ(net.link_utilization(wan), sum);
}

// ---------------------------------------------------------------------------
// Direct solver-primitive tests (no Network, no Simulation).
// ---------------------------------------------------------------------------

TEST(BipartiteIndex, SwapPopRemoveRepairsBackReferences) {
  maxmin::BipartiteIndex index;
  index.ensure_links(2);
  maxmin::FlowState f0, f1, f2;
  f0.links = {0, 1};
  f1.links = {0};
  f2.links = {0, 1};
  index.add(&f0);
  index.add(&f1);
  index.add(&f2);
  ASSERT_EQ(index.flows_on(0).size(), 3u);
  // Removing the middle entry swap-pops f2 into its slot; f2's back-refs
  // must be repaired or a later remove corrupts the list.
  index.remove(&f1);
  ASSERT_EQ(index.flows_on(0).size(), 2u);
  EXPECT_EQ(index.flows_on(0)[1], &f2);
  index.remove(&f2);
  ASSERT_EQ(index.flows_on(0).size(), 1u);
  EXPECT_EQ(index.flows_on(0)[0], &f0);
  EXPECT_EQ(index.flows_on(1).size(), 1u);
  index.remove(&f0);
  EXPECT_TRUE(index.flows_on(0).empty());
  EXPECT_TRUE(index.flows_on(1).empty());
}

TEST(MaxMinSolver, ComponentSolveMatchesGlobalReference) {
  // Two disjoint components solved one at a time must reproduce the global
  // pass bit-for-bit (the incremental scheme's core claim, in miniature).
  const std::vector<double> capacity = {9e7, 5e7, 1e8};
  const auto build = [](std::vector<maxmin::FlowState>& fs) {
    fs.resize(4);
    fs[0].links = {0, 1};
    fs[1].links = {1};
    fs[2].links = {2};
    fs[3].links = {2};
    fs[2].rate_cap = 2e7;
    for (std::size_t i = 0; i < fs.size(); ++i) fs[i].order = i;
  };
  std::vector<maxmin::FlowState> ref;
  build(ref);
  std::vector<maxmin::FlowState*> by_order;
  for (auto& f : ref) by_order.push_back(&f);
  maxmin::solve_global_reference(by_order, capacity.size(), capacity);

  std::vector<maxmin::FlowState> inc;
  build(inc);
  maxmin::BipartiteIndex index;
  index.ensure_links(capacity.size());
  for (auto& f : inc) index.add(&f);
  maxmin::Solver solver;
  solver.ensure_links(capacity.size());
  solver.collect_component(index, {0}, nullptr);
  EXPECT_EQ(solver.comp_flows().size(), 2u);
  solver.solve_component(capacity);
  solver.collect_component(index, {2}, nullptr);
  EXPECT_EQ(solver.comp_flows().size(), 2u);
  solver.solve_component(capacity);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(inc[i].rate, ref[i].rate) << "flow " << i;
    EXPECT_EQ(inc[i].achievable, ref[i].achievable) << "flow " << i;
  }
}

}  // namespace
}  // namespace gridsim::net
