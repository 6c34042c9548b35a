// Unit and property tests for the fluid network model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "simcore/simulation.hpp"
#include "simnet/network.hpp"

namespace gridsim::net {
namespace {

using namespace gridsim::literals;

struct TwoHosts {
  Simulation sim;
  Network network{sim};
  HostId a, b;
  LinkId ab;
  TwoHosts(double capacity = 1e9, SimTime latency = 1_ms,
           double queue = 1e6) {
    a = network.add_host("a");
    b = network.add_host("b");
    ab = network.add_link("a-b", capacity, latency, queue);
    network.add_route(a, b, {ab});
  }
};

TEST(Network, TopologyAccessors) {
  TwoHosts t(2e9, 3_ms, 5e5);
  EXPECT_EQ(t.network.host_count(), 2);
  EXPECT_EQ(t.network.host(t.a).name, "a");
  EXPECT_TRUE(t.network.has_route(t.a, t.b));
  EXPECT_TRUE(t.network.has_route(t.b, t.a));  // symmetric by default
  EXPECT_FALSE(t.network.has_route(t.a, t.a));
  EXPECT_EQ(t.network.path_latency(t.a, t.b), 3_ms);
  EXPECT_DOUBLE_EQ(t.network.path_capacity(t.a, t.b), 2e9);
  EXPECT_DOUBLE_EQ(t.network.path_queue(t.a, t.b), 5e5);
}

TEST(Network, MissingRouteThrows) {
  Simulation sim;
  Network n(sim);
  const HostId a = n.add_host("a");
  const HostId b = n.add_host("b");
  EXPECT_THROW(n.route(a, b), std::out_of_range);
  EXPECT_THROW(n.start_flow(a, b, 100, kUnlimitedRate, nullptr),
               std::out_of_range);
}

TEST(Network, SingleFlowTransferTime) {
  TwoHosts t(1e8 /* 100 MB/s */);
  SimTime done = -1;
  t.network.start_flow(t.a, t.b, 1e8, kUnlimitedRate,
                       [&] { done = t.sim.now(); });
  t.sim.run();
  EXPECT_EQ(done, 1_s);  // 100 MB at 100 MB/s
}

TEST(Network, RateCapLimitsThroughput) {
  TwoHosts t(1e8);
  SimTime done = -1;
  t.network.start_flow(t.a, t.b, 1e7, 1e7 /* 10 MB/s cap */,
                       [&] { done = t.sim.now(); });
  t.sim.run();
  EXPECT_EQ(done, 1_s);
}

TEST(Network, TwoFlowsShareBottleneckEqually) {
  TwoHosts t(1e8);
  std::vector<SimTime> done(2, -1);
  t.network.start_flow(t.a, t.b, 1e8, kUnlimitedRate,
                       [&] { done[0] = t.sim.now(); });
  t.network.start_flow(t.a, t.b, 1e8, kUnlimitedRate,
                       [&] { done[1] = t.sim.now(); });
  t.sim.run();
  // Each gets 50 MB/s; both finish at 2 s.
  EXPECT_EQ(done[0], 2_s);
  EXPECT_EQ(done[1], 2_s);
}

TEST(Network, ShortFlowFinishesThenLongFlowSpeedsUp) {
  TwoHosts t(1e8);
  std::vector<SimTime> done(2, -1);
  t.network.start_flow(t.a, t.b, 5e7, kUnlimitedRate,
                       [&] { done[0] = t.sim.now(); });
  t.network.start_flow(t.a, t.b, 1e8, kUnlimitedRate,
                       [&] { done[1] = t.sim.now(); });
  t.sim.run();
  // Flow 0: 50 MB at 50 MB/s -> 1 s. Flow 1: 50 MB in the first second,
  // then the remaining 50 MB at full 100 MB/s -> 1.5 s.
  EXPECT_EQ(done[0], 1_s);
  EXPECT_EQ(done[1], 1500_ms);
}

TEST(Network, CappedFlowLeavesBandwidthToOthers) {
  TwoHosts t(1e8);
  std::vector<SimTime> done(2, -1);
  t.network.start_flow(t.a, t.b, 1e7, 1e7, [&] { done[0] = t.sim.now(); });
  t.network.start_flow(t.a, t.b, 9e7, kUnlimitedRate,
                       [&] { done[1] = t.sim.now(); });
  t.sim.run();
  // Max-min: capped flow 10 MB/s, other 90 MB/s; both finish at 1 s.
  EXPECT_EQ(done[0], 1_s);
  EXPECT_EQ(done[1], 1_s);
}

TEST(Network, SetRateCapMidFlight) {
  TwoHosts t(1e8);
  SimTime done = -1;
  const FlowId f = t.network.start_flow(t.a, t.b, 1e8, kUnlimitedRate,
                                        [&] { done = t.sim.now(); });
  // After 0.5 s (50 MB moved), throttle to 25 MB/s: 50 MB left -> 2 s more.
  t.sim.at(500_ms, [&] { t.network.set_rate_cap(f, 2.5e7); });
  t.sim.run();
  EXPECT_EQ(done, 2500_ms);
}

TEST(Network, ReapplyingAFlowsCapSkipsTheResolve) {
  // Two capped flows and an unlimited one share one link, and flows get
  // their current cap again: half-way through the capped flows (every
  // flow), or at exactly 500 ms, the instant both capped flows run out (the
  // open flow). The incremental solver settles and reschedules only the
  // re-capped flow and solves nothing; at 500 ms it is the eta drain that
  // must find the capped flows due and post them in arrival order. On both
  // solvers neither rate nor completion time nor completion order moves
  // against a run without the re-application, and both solvers process the
  // same events.
  enum class Reapply { kNone, kHalfWay, kAtCappedFlowsEnd };
  struct Outcome {
    std::vector<SimTime> done = std::vector<SimTime>(3, -1);
    std::vector<int> order;  ///< flow indices in completion order
    std::uint64_t events = 0;
  };
  const auto run = [](SolverMode mode, Reapply reapply) {
    TwoHosts t(1e8);
    t.network.set_solver_mode(mode);
    Outcome out;
    const auto finished = [&out, &t](int i) {
      out.done[static_cast<std::size_t>(i)] = t.sim.now();
      out.order.push_back(i);
    };
    FlowId open = kInvalidFlow;
    if (reapply == Reapply::kAtCappedFlowsEnd) {
      // Scheduled before the flows start, so it runs ahead of the capped
      // flows' own completion checks at the same instant.
      t.sim.at(500_ms, [&] {
        const std::uint64_t solves = t.network.solver_stats().solves;
        t.network.set_rate_cap(open, kUnlimitedRate);
        EXPECT_EQ(t.network.solver_stats().solves, solves);
      });
    }
    // Two flows started and cancelled first leave their slots free in
    // reverse order, so the capped flows' ids run against their arrival
    // order: the drain meets them by id, and only the merge's sort puts
    // them back in the arrival order the oracle posts in.
    const FlowId d0 = t.network.start_flow(t.a, t.b, 1e6, 2e7, nullptr);
    const FlowId d1 = t.network.start_flow(t.a, t.b, 1e6, 2e7, nullptr);
    t.network.cancel_flow(d0);
    t.network.cancel_flow(d1);
    const FlowId capped0 =
        t.network.start_flow(t.a, t.b, 1e7, 2e7, [&] { finished(0); });
    const FlowId capped1 =
        t.network.start_flow(t.a, t.b, 1e7, 2e7, [&] { finished(1); });
    EXPECT_GT(capped0, capped1);
    open = t.network.start_flow(t.a, t.b, 1e8, kUnlimitedRate,
                                [&] { finished(2); });
    if (reapply == Reapply::kHalfWay) {
      t.sim.run_until(250_ms);
      const std::uint64_t solves = t.network.solver_stats().solves;
      const std::vector<FlowId> flows{capped0, capped1, open};
      const std::vector<double> caps{2e7, 2e7, kUnlimitedRate};
      std::vector<FlowInfo> before;
      for (const FlowId f : flows) before.push_back(t.network.flow_info(f));
      for (std::size_t i = 0; i < flows.size(); ++i)
        t.network.set_rate_cap(flows[i], caps[i]);
      EXPECT_EQ(t.network.solver_stats().solves, solves);
      for (std::size_t i = 0; i < flows.size(); ++i) {
        const FlowInfo after = t.network.flow_info(flows[i]);
        EXPECT_EQ(after.rate, before[i].rate);
        EXPECT_EQ(after.achievable_rate, before[i].achievable_rate);
      }
    }
    t.sim.run();
    out.events = t.sim.events_processed();
    return out;
  };
  const Outcome plain = run(SolverMode::kIncremental, Reapply::kNone);
  // 10 MB at a 20 MB/s cap each; the open flow moves 30 MB at 60 MB/s,
  // then 70 MB at 100 MB/s.
  EXPECT_EQ(plain.done, (std::vector<SimTime>{500_ms, 500_ms, 1200_ms}));
  EXPECT_EQ(plain.order, (std::vector<int>{0, 1, 2}));
  for (const Reapply reapply :
       {Reapply::kNone, Reapply::kHalfWay, Reapply::kAtCappedFlowsEnd}) {
    SCOPED_TRACE(static_cast<int>(reapply));
    const Outcome inc = run(SolverMode::kIncremental, reapply);
    const Outcome ora = run(SolverMode::kGlobalOracle, reapply);
    EXPECT_EQ(inc.done, plain.done);
    EXPECT_EQ(inc.order, plain.order);
    EXPECT_EQ(ora.done, plain.done);
    EXPECT_EQ(ora.order, plain.order);
    EXPECT_EQ(inc.events, ora.events);
  }

  // A cap that does change is solved.
  TwoHosts t(1e8);
  t.network.set_solver_mode(SolverMode::kIncremental);
  const FlowId f = t.network.start_flow(t.a, t.b, 1e8, 2e7, nullptr);
  const std::uint64_t solves = t.network.solver_stats().solves;
  t.network.set_rate_cap(f, 3e7);
  EXPECT_EQ(t.network.solver_stats().solves, solves + 1);
  EXPECT_EQ(t.network.flow_info(f).rate, 3e7);
}

TEST(Network, CancelFlowReleasesBandwidth) {
  TwoHosts t(1e8);
  std::vector<SimTime> done(2, -1);
  const FlowId f0 = t.network.start_flow(t.a, t.b, 1e9, kUnlimitedRate,
                                         [&] { done[0] = t.sim.now(); });
  t.network.start_flow(t.a, t.b, 1e8, kUnlimitedRate,
                       [&] { done[1] = t.sim.now(); });
  t.sim.at(1_s, [&] { t.network.cancel_flow(f0); });
  t.sim.run();
  EXPECT_EQ(done[0], -1);  // cancelled: no completion callback
  // Flow 1: 50 MB in first second (sharing), then 50 MB at 100 MB/s.
  EXPECT_EQ(done[1], 1500_ms);
}

TEST(Network, ZeroByteFlowCompletesImmediately) {
  TwoHosts t;
  SimTime done = -1;
  t.network.start_flow(t.a, t.b, 0, kUnlimitedRate,
                       [&] { done = t.sim.now(); });
  t.sim.run();
  EXPECT_EQ(done, 0);
}

TEST(Network, MultiLinkRouteUsesBottleneck) {
  Simulation sim;
  Network n(sim);
  const HostId a = n.add_host("a");
  const HostId b = n.add_host("b");
  const LinkId fast = n.add_link("fast", 1e9, 1_ms, 1e6);
  const LinkId slow = n.add_link("slow", 1e7, 2_ms, 1e6);
  n.add_route(a, b, {fast, slow});
  EXPECT_EQ(n.path_latency(a, b), 3_ms);
  EXPECT_DOUBLE_EQ(n.path_capacity(a, b), 1e7);
  SimTime done = -1;
  n.start_flow(a, b, 1e7, kUnlimitedRate, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, 1_s);
}

TEST(Network, DumbbellIsMaxMinFair) {
  // a0 -> b0 crosses {acc0, wan}; a1 -> b1 crosses {acc1, wan}.
  // acc0 is 10 MB/s, acc1 100 MB/s, wan 60 MB/s.
  // Max-min: flow0 = 10 (capped by acc0), flow1 = 50 (wan residual).
  Simulation sim;
  Network n(sim);
  const HostId a0 = n.add_host("a0");
  const HostId a1 = n.add_host("a1");
  const HostId b0 = n.add_host("b0");
  const HostId b1 = n.add_host("b1");
  const LinkId acc0 = n.add_link("acc0", 1e7, 0, 1e6);
  const LinkId acc1 = n.add_link("acc1", 1e8, 0, 1e6);
  const LinkId wan = n.add_link("wan", 6e7, 10_ms, 1e6);
  n.add_route(a0, b0, {acc0, wan});
  n.add_route(a1, b1, {acc1, wan});
  std::vector<SimTime> done(2, -1);
  n.start_flow(a0, b0, 1e7, kUnlimitedRate, [&] { done[0] = sim.now(); });
  n.start_flow(a1, b1, 5e7, kUnlimitedRate, [&] { done[1] = sim.now(); });
  // Both at their max-min rate for exactly 1 s.
  EXPECT_NEAR(n.link_utilization(wan), 6e7, 1.0);
  sim.run();
  EXPECT_EQ(done[0], 1_s);
  EXPECT_EQ(done[1], 1_s);
}

TEST(Network, AchievableRateReportsSlack) {
  TwoHosts t(1e8);
  const FlowId f = t.network.start_flow(t.a, t.b, 1e9, 2e7, nullptr);
  const FlowInfo info = t.network.flow_info(f);
  EXPECT_DOUBLE_EQ(info.rate, 2e7);
  // The link has 80 MB/s spare: an uncapped window could take it all.
  EXPECT_DOUBLE_EQ(info.achievable_rate, 1e8);
}

TEST(Network, AchievableRateEqualsRateWhenLinkLimited) {
  TwoHosts t(1e8);
  const FlowId f0 =
      t.network.start_flow(t.a, t.b, 1e9, kUnlimitedRate, nullptr);
  t.network.start_flow(t.a, t.b, 1e9, kUnlimitedRate, nullptr);
  const FlowInfo info = t.network.flow_info(f0);
  EXPECT_DOUBLE_EQ(info.rate, 5e7);
  EXPECT_DOUBLE_EQ(info.achievable_rate, 5e7);
}

TEST(Network, FlowInfoUnknownIdIsZero) {
  TwoHosts t;
  const FlowInfo info = t.network.flow_info(9999);
  EXPECT_EQ(info.rate, 0);
  EXPECT_EQ(info.remaining, 0);
}

// ---------------------------------------------------------------------------
// Property-style sweeps: capacity conservation and work conservation for
// random-ish flow sets on a dumbbell.
// ---------------------------------------------------------------------------

class MaxMinProperty : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinProperty, ConservationAndFairness) {
  const int nflows = GetParam();
  Simulation sim;
  Network n(sim);
  std::vector<HostId> senders, receivers;
  std::vector<LinkId> uplinks;
  const LinkId wan = n.add_link("wan", 1e8, 5_ms, 1e6);
  for (int i = 0; i < nflows; ++i) {
    const std::string suffix = std::to_string(i);
    senders.push_back(n.add_host("s" + suffix));
    receivers.push_back(n.add_host("r" + suffix));
    uplinks.push_back(n.add_link("up" + suffix, 4e7, 1_ms, 1e6));
    n.add_route(senders.back(), receivers.back(), {uplinks.back(), wan});
  }
  std::vector<FlowId> flows;
  for (int i = 0; i < nflows; ++i) {
    // Alternate capped and uncapped flows.
    const double cap = (i % 2 == 0) ? 5e6 : kUnlimitedRate;
    flows.push_back(
        n.start_flow(senders[static_cast<size_t>(i)],
                     receivers[static_cast<size_t>(i)], 1e12, cap, nullptr));
  }
  // Conservation: no link carries more than its capacity.
  EXPECT_LE(n.link_utilization(wan), 1e8 * (1 + 1e-9));
  for (LinkId l : uplinks) EXPECT_LE(n.link_utilization(l), 4e7 * (1 + 1e-9));
  // Uncapped flows all get the same (fair) rate; capped flows get
  // min(cap, fair level).
  double uncapped_rate = -1;
  for (int i = 1; i < nflows; i += 2) {
    const FlowInfo info = n.flow_info(flows[static_cast<size_t>(i)]);
    if (uncapped_rate < 0) uncapped_rate = info.rate;
    EXPECT_NEAR(info.rate, uncapped_rate, 1.0);
  }
  for (int i = 0; i < nflows; i += 2) {
    const FlowInfo info = n.flow_info(flows[static_cast<size_t>(i)]);
    const double expected =
        uncapped_rate < 0 ? 5e6 : std::min(5e6, uncapped_rate);
    EXPECT_NEAR(info.rate, expected, 1.0);
  }
  // Work conservation: the WAN is saturated whenever demand exceeds it.
  double total_demand = 0;
  for (int i = 0; i < nflows; ++i)
    total_demand += (i % 2 == 0) ? 5e6 : 4e7;
  if (total_demand >= 1e8) {
    EXPECT_NEAR(n.link_utilization(wan), 1e8, 10.0);
  } else {
    EXPECT_NEAR(n.link_utilization(wan), total_demand, 10.0);
  }
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, MaxMinProperty,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 32));

TEST(Network, ManySequentialFlowsLinkStats) {
  TwoHosts t(1e8);
  int completed = 0;
  // 100 back-to-back 1 MB transfers.
  std::function<void()> launch = [&] {
    if (completed == 100) return;
    t.network.start_flow(t.a, t.b, 1e6, kUnlimitedRate, [&] {
      ++completed;
      launch();
    });
  };
  launch();
  t.sim.run();
  EXPECT_EQ(completed, 100);
  EXPECT_EQ(t.sim.now(), 1_s);
  EXPECT_NEAR(t.network.link(t.ab).bytes_carried, 1e8, 1e3);
}

}  // namespace
}  // namespace gridsim::net
