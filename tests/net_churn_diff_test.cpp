// Differential property suite for the incremental max-min solver: one
// Simulation drives two Networks — the incremental solver and the retained
// global-resolve oracle — through identical seeded churn schedules (flow
// arrivals/departures, cap changes, re-applied unchanged caps, for which
// the incremental solver settles and reschedules only the re-capped flow
// and solves nothing, link-capacity changes, time advances, and "twin"
// flows that finish in the same nanosecond with ops queued at that
// instant, which reach the post-solve scheduling of due and done flows).
// After every step the two must agree EXACTLY (bitwise doubles, not within
// a tolerance): same active flows, same completions in the same order at
// the same nanosecond, same rates, same remaining bytes, same link
// utilizations. Conservation is checked on every link at every step.
//
// Runs under the "stress" ctest label (64 seeds x ~150 ops); CI runs it
// under ASan+UBSan in the asan stage (scripts/ci.sh asan).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "simcore/check.hpp"
#include "simcore/simulation.hpp"
#include "simnet/network.hpp"

namespace gridsim::net {
namespace {

using namespace gridsim::literals;

struct NetUnderTest {
  Network net;
  std::set<FlowId> active;
  /// (completion time, index of the op that started the flow), in the
  /// order the completion callbacks ran.
  std::vector<std::pair<SimTime, int>> completions;
  explicit NetUnderTest(Simulation& sim, SolverMode mode) : net(sim) {
    net.set_solver_mode(mode);
  }
};

class ChurnDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ChurnDifferential, IncrementalMatchesOracleExactly) {
  const unsigned seed = static_cast<unsigned>(GetParam());
  std::mt19937 rng(seed ^ 0x9e3779b9u);

  Simulation sim;
  NetUnderTest inc(sim, SolverMode::kIncremental);
  NetUnderTest ora(sim, SolverMode::kGlobalOracle);

  // Random dumbbell-ish topology: H hosts behind access links, sharing K
  // backbone links; route(i, j) = {acc_i, bb_(i+j mod K), acc_j}. Both
  // networks get the identical build sequence.
  const int hosts = 4 + static_cast<int>(rng() % 7);
  const int backbones = 1 + static_cast<int>(rng() % 3);
  std::vector<double> acc_caps, bb_caps;
  for (int i = 0; i < hosts; ++i)
    acc_caps.push_back(1e7 * static_cast<double>(1 + rng() % 20));
  for (int k = 0; k < backbones; ++k)
    bb_caps.push_back(2e7 * static_cast<double>(1 + rng() % 50));
  std::vector<LinkId> acc, bb;
  std::vector<HostId> host_ids;
  const auto build = [&](Network& n) {
    std::vector<LinkId> a, b;
    for (int i = 0; i < hosts; ++i) {
      host_ids.push_back(n.add_host("h" + std::to_string(i)));
      a.push_back(n.add_link("acc" + std::to_string(i),
                             acc_caps[static_cast<size_t>(i)], 1_ms, 1e6));
    }
    for (int k = 0; k < backbones; ++k)
      b.push_back(n.add_link("bb" + std::to_string(k),
                             bb_caps[static_cast<size_t>(k)], 5_ms, 1e6));
    for (int i = 0; i < hosts; ++i)
      for (int j = 0; j < hosts; ++j) {
        if (i == j) continue;
        n.add_route(i, j,
                    {a[static_cast<size_t>(i)],
                     b[static_cast<size_t>((i + j) % backbones)],
                     a[static_cast<size_t>(j)]},
                    /*symmetric=*/false);
      }
    acc = a;
    bb = b;
  };
  build(inc.net);
  build(ora.net);

  // Route links and current caps by flow id, tracked for the per-link
  // conservation check and the same-cap mutation (identical for both
  // networks by construction).
  std::map<FlowId, std::vector<LinkId>> flow_links;
  std::map<FlowId, double> flow_caps;

  const auto check_agreement = [&](const char* what) {
    ASSERT_EQ(inc.active, ora.active) << what << " seed=" << seed;
    for (FlowId f : inc.active) {
      const FlowInfo a = inc.net.flow_info(f);
      const FlowInfo b = ora.net.flow_info(f);
      // Bitwise equality: the incremental solver replicates the oracle's
      // floating-point arithmetic, not just its limit.
      ASSERT_EQ(a.rate, b.rate) << what << " flow=" << f << " seed=" << seed;
      ASSERT_EQ(a.remaining, b.remaining)
          << what << " flow=" << f << " seed=" << seed;
      ASSERT_EQ(a.achievable_rate, b.achievable_rate)
          << what << " flow=" << f << " seed=" << seed;
    }
    for (int l = 0; l < inc.net.link_count(); ++l) {
      const double u_inc = inc.net.link_utilization(l);
      const double u_ora = ora.net.link_utilization(l);
      ASSERT_EQ(u_inc, u_ora) << what << " link=" << l << " seed=" << seed;
      // Conservation, and utilization == sum of the crossing flows' own
      // reported rates (the persistent per-link list regression).
      ASSERT_TRUE(approx_le(u_inc, inc.net.link(l).capacity))
          << what << " link=" << l << " util=" << u_inc
          << " cap=" << inc.net.link(l).capacity << " seed=" << seed;
      double sum = 0;
      for (const auto& [f, links] : flow_links) {
        if (!inc.active.count(f)) continue;
        for (LinkId fl : links)
          if (fl == l) sum += inc.net.flow_info(f).rate;
      }
      // Near, not bitwise: link_utilization adds in per-link list order,
      // this loop in flow-id order, and FP addition is order-sensitive.
      ASSERT_NEAR(u_inc, sum, 1e-9 * std::max(1.0, sum))
          << what << " link=" << l << " seed=" << seed;
    }
  };

  const auto pick_active = [&]() -> FlowId {
    auto it = inc.active.begin();
    std::advance(it, static_cast<long>(rng() % inc.active.size()));
    return *it;
  };

  // Starts the same flow on both networks; `op` tags its completion.
  const auto start_both = [&](int i, int j, double bytes, double cap,
                              int op) {
    const FlowId fi = inc.net.start_flow(i, j, bytes, cap, [&inc, &sim, op] {
      inc.completions.emplace_back(sim.now(), op);
    });
    const FlowId fo = ora.net.start_flow(i, j, bytes, cap, [&ora, &sim, op] {
      ora.completions.emplace_back(sim.now(), op);
    });
    EXPECT_EQ(fi, fo);
    inc.active.insert(fi);
    ora.active.insert(fo);
    flow_links[fi] = inc.net.route(i, j).links;
    flow_caps[fi] = cap;
    return fi;
  };

  int same_cap_ops = 0;
  // One mutation, applied to both networks; `op` tags the completions of
  // the flows it starts. Runs from the test loop or, queued by a twin op,
  // as an event at the instant the twins finish.
  const auto random_op = [&](int op, unsigned kind) {
    if (kind < 45 || inc.active.empty()) {
      // Start the same flow on both networks.
      const int i = static_cast<int>(rng() % static_cast<unsigned>(hosts));
      int j = static_cast<int>(rng() % static_cast<unsigned>(hosts));
      if (j == i) j = (j + 1) % hosts;
      std::uniform_real_distribution<double> mag(3.0, 8.0);
      const double bytes = std::pow(10.0, mag(rng));
      const double cap =
          (rng() % 2 == 0) ? kUnlimitedRate : 1e6 * static_cast<double>(1 + rng() % 1000);
      start_both(i, j, bytes, cap, op);
    } else if (kind < 60) {
      const FlowId f = pick_active();
      const double cap =
          (rng() % 4 == 0) ? kUnlimitedRate : 1e6 * static_cast<double>(1 + rng() % 1000);
      inc.net.set_rate_cap(f, cap);
      ora.net.set_rate_cap(f, cap);
      flow_caps[f] = cap;
    } else if (kind < 70) {
      // Same cap again (unlimited included): a TCP tick that changes
      // nothing. The incremental solver logs the settle point and settles
      // and reschedules only this flow, leaving the rest of its component
      // unsettled; both networks must still move identically, and the
      // incremental one must not re-solve.
      const FlowId f = pick_active();
      const std::uint64_t solves = inc.net.solver_stats().solves;
      inc.net.set_rate_cap(f, flow_caps.at(f));
      ora.net.set_rate_cap(f, flow_caps.at(f));
      ASSERT_EQ(inc.net.solver_stats().solves, solves) << "seed=" << seed;
      ++same_cap_ops;
    } else if (kind < 85) {
      const FlowId f = pick_active();
      inc.net.cancel_flow(f);
      ora.net.cancel_flow(f);
      inc.active.erase(f);
      ora.active.erase(f);
    } else {
      const bool backbone = rng() % 2 == 0;
      const LinkId l = backbone
                           ? bb[rng() % bb.size()]
                           : acc[rng() % acc.size()];
      std::uniform_real_distribution<double> scale(0.3, 2.0);
      const double cap = inc.net.link(l).capacity * scale(rng);
      inc.net.set_link_capacity(l, cap);
      ora.net.set_link_capacity(l, cap);
    }
  };

  // Starts 2-3 flows with equal bytes and an equal cap far below any fair
  // share, on one route or on routes that share no link (distinct hosts and
  // backbones), so that they finish in the same nanosecond, and queues a
  // random op at that instant, predicted from flow_info. That op's event
  // comes after the twins' completion checks, so it mutates while a twin's
  // finish is posted and still pending. Another op, queued before the
  // twins start at the instant their cap alone predicts, runs ahead of the
  // checks, while the twins are due but unfinished. Either way the eta
  // drain must find twins outside the mutated component, and they must be
  // posted in arrival order: a completion moved by a nanosecond or swapped
  // with a twin's shows in the completion logs.
  int twin_ops = 0;
  const auto twin_op = [&](int op) {
    const auto count = static_cast<std::size_t>(2 + rng() % 2);
    std::vector<std::pair<int, int>> routes;
    if (rng() % 2 == 0) {
      std::vector<bool> host_used(static_cast<std::size_t>(hosts));
      std::vector<bool> bb_used(static_cast<std::size_t>(backbones));
      const int pairs = hosts * hosts;
      const int first = static_cast<int>(rng() % static_cast<unsigned>(pairs));
      for (int k = 0; k < pairs && routes.size() < count; ++k) {
        const int i = (first + k) % pairs / hosts;
        const int j = (first + k) % pairs % hosts;
        const auto b = static_cast<std::size_t>((i + j) % backbones);
        if (i == j || host_used[static_cast<std::size_t>(i)] ||
            host_used[static_cast<std::size_t>(j)] || bb_used[b])
          continue;
        host_used[static_cast<std::size_t>(i)] = true;
        host_used[static_cast<std::size_t>(j)] = true;
        bb_used[b] = true;
        routes.emplace_back(i, j);
      }
    }
    if (routes.size() < 2) {
      const int i = static_cast<int>(rng() % static_cast<unsigned>(hosts));
      const int j = (i + 1 + static_cast<int>(rng() % static_cast<unsigned>(
                                 hosts - 1))) % hosts;
      routes.assign(count, {i, j});
    }
    const double cap = 1e5 * static_cast<double>(1 + rng() % 20);
    const double bytes =
        cap * 1e-3 * static_cast<double>(1 + rng() % 20);  // 1-20 ms
    const auto ahead_kind = static_cast<unsigned>(rng() % 100);
    sim.at(sim.now() + from_seconds(bytes / cap),
           [&random_op, op, ahead_kind] { random_op(op, ahead_kind); });
    SimTime due = kSimTimeNever;
    for (const auto& [i, j] : routes) {
      const FlowInfo info = inc.net.flow_info(start_both(i, j, bytes, cap, op));
      due = std::min(due, sim.now() + from_seconds(info.remaining / info.rate));
    }
    const auto kind = static_cast<unsigned>(rng() % 100);
    sim.at(due, [&random_op, op, kind] { random_op(op, kind); });
    ++twin_ops;
  };

  const int ops = 150;
  for (int op = 0; op < ops; ++op) {
    // Advance virtual time (0 keeps same-timestamp mutation bursts in the
    // mix); completion events for both networks fire inside run_until.
    if (rng() % 4 != 0)
      sim.run_until(sim.now() + static_cast<SimTime>(rng() % 20000) * 1_us);

    if (rng() % 8 == 0) {
      twin_op(op);
    } else {
      random_op(op, static_cast<unsigned>(rng() % 100));
    }
    if (HasFatalFailure()) return;

    // Both networks must have finished the same flows at the same instants
    // and in the same order. A 1 ns shift, or two completions swapped
    // within one instant, shows here and nowhere else.
    ASSERT_EQ(inc.completions, ora.completions)
        << "completion drift after op " << op << " seed=" << seed;
    // Completion callbacks are not wired into the active sets (the nets
    // must stay in lockstep even through completions), so sync via
    // flow_active — asserting both networks finished the same flows.
    for (auto it = inc.active.begin(); it != inc.active.end();) {
      const bool ai = inc.net.flow_active(*it);
      const bool ao = ora.net.flow_active(*it);
      ASSERT_EQ(ai, ao) << "completion drift, flow=" << *it
                        << " seed=" << seed;
      if (!ai) {
        ora.active.erase(*it);
        it = inc.active.erase(it);
      } else {
        ++it;
      }
    }

    check_agreement("post-op");
  }

  // Drain: cancel everything and verify both end empty and idle.
  for (FlowId f : std::vector<FlowId>(inc.active.begin(), inc.active.end())) {
    inc.net.cancel_flow(f);
    ora.net.cancel_flow(f);
    inc.active.erase(f);
    ora.active.erase(f);
  }
  check_agreement("post-drain");
  EXPECT_EQ(inc.net.active_flow_count(), 0);
  EXPECT_EQ(ora.net.active_flow_count(), 0);
  EXPECT_GT(same_cap_ops, 0) << "seed=" << seed;
  EXPECT_GT(twin_ops, 0) << "seed=" << seed;
  EXPECT_FALSE(inc.completions.empty()) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnDifferential, ::testing::Range(0, 64));

}  // namespace
}  // namespace gridsim::net
