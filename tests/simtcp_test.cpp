// Tests for the TCP channel model: window arithmetic, buffer back-pressure,
// congestion dynamics, and the paper's headline throughput regimes.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "simcore/simulation.hpp"
#include "simnet/network.hpp"
#include "simtcp/tcp.hpp"

namespace gridsim::tcp {
namespace {

using namespace gridsim::literals;
using net::HostId;

// A two-host path mirroring the Rennes--Nancy WAN: 1 GbE goodput, 5.8 ms
// one-way latency, 1 MB bottleneck queue.
struct WanPair {
  Simulation sim;
  net::Network network{sim};
  HostId a, b;
  WanPair(SimTime one_way = 5800_us, double queue = 1e6) {
    a = network.add_host("a");
    b = network.add_host("b");
    const auto l =
        network.add_link("wan", ethernet_goodput(1e9), one_way, queue);
    network.add_route(a, b, {l});
  }
};

// Cluster-like pair: 35 us one-way.
struct LanPair : WanPair {
  LanPair() : WanPair(35_us, 128e3) {}
};

TEST(Tcp, EthernetGoodput) {
  // 1 GbE carries ~941 Mbps of payload.
  EXPECT_NEAR(ethernet_goodput(1e9) * 8 / 1e6, 941.5, 0.5);
}

TEST(Tcp, EffectiveBufferRules) {
  WanPair w;
  KernelTunables k;  // defaults
  {
    // Auto-tuning: bound by tcp_*mem[2].
    TcpChannel ch(w.network, w.a, w.b, k, k, SocketOptions{});
    EXPECT_DOUBLE_EQ(ch.effective_sndbuf(), k.tcp_wmem[2]);
    EXPECT_DOUBLE_EQ(ch.effective_rcvbuf(), k.tcp_rmem[2]);
  }
  {
    // setsockopt: clamped by the core max, overrides auto-tuning.
    SocketOptions o;
    o.sndbuf = o.rcvbuf = 4e6;
    TcpChannel ch(w.network, w.a, w.b, k, k, o);
    EXPECT_DOUBLE_EQ(ch.effective_sndbuf(), k.wmem_max);  // clamped: 131071
    EXPECT_DOUBLE_EQ(ch.effective_rcvbuf(), k.rmem_max);
  }
  {
    // GridMPI style: locked to the kernel initial ("middle") value.
    SocketOptions o;
    o.lock_buffers_to_initial = true;
    TcpChannel ch(w.network, w.a, w.b, k, k, o);
    EXPECT_DOUBLE_EQ(ch.effective_sndbuf(), k.tcp_wmem[1]);
    EXPECT_DOUBLE_EQ(ch.effective_rcvbuf(), k.tcp_rmem[1]);
  }
  {
    // Tuned kernel + setsockopt 4MB (OpenMPI with MCA params).
    KernelTunables t = KernelTunables::grid_tuned();
    SocketOptions o;
    o.sndbuf = o.rcvbuf = 4 * 1024 * 1024;
    TcpChannel ch(w.network, w.a, w.b, t, t, o);
    EXPECT_DOUBLE_EQ(ch.effective_sndbuf(), 4 * 1024 * 1024);
  }
}

TEST(Tcp, WindowIsMinOfCwndAndBuffers) {
  WanPair w;
  KernelTunables k;
  TcpChannel ch(w.network, w.a, w.b, k, k, SocketOptions{});
  // Fresh connection: cwnd = 2 MSS is the binding term.
  EXPECT_DOUBLE_EQ(ch.window(), 2 * ch.params().mss);
  EXPECT_EQ(ch.rtt(), 2 * 5800_us);
}

TEST(Tcp, SmallMessageLatencyIsPropagation) {
  WanPair w;
  KernelTunables k;
  TcpChannel ch(w.network, w.a, w.b, k, k, SocketOptions{});
  SimTime delivered = -1;
  ch.send(1.0, nullptr, [&] { delivered = w.sim.now(); });
  w.sim.run_until(1_s);
  // 1 byte: transfer time negligible, delivery at one-way latency.
  EXPECT_GE(delivered, 5800_us);
  EXPECT_LE(delivered, 5810_us);
}

TEST(Tcp, FifoDeliveryOrder) {
  WanPair w;
  KernelTunables k = KernelTunables::grid_tuned();
  TcpChannel ch(w.network, w.a, w.b, k, k, SocketOptions{});
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    ch.send(100e3, nullptr, [&order, i] { order.push_back(i); });
  w.sim.run_until(30_s);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Tcp, DefaultGridThroughputCollapses) {
  // The paper's Fig 3: with default kernel tunables on an 11.6 ms RTT path,
  // goodput is capped by the 174760-byte auto-tuning bound at ~120 Mbps.
  WanPair w;
  KernelTunables k;
  TcpChannel ch(w.network, w.a, w.b, k, k, SocketOptions{});
  SimTime done = -1;
  const double bytes = 64e6;
  ch.send(bytes, nullptr, [&] { done = w.sim.now(); });
  w.sim.run_until(60_s);
  ASSERT_GT(done, 0);
  const double mbps_measured = bytes * 8 / to_seconds(done) / 1e6;
  EXPECT_LT(mbps_measured, 122);
  EXPECT_GT(mbps_measured, 90);
  EXPECT_EQ(ch.loss_events(), 0);  // window never exceeds the path BDP
}

TEST(Tcp, TunedGridThroughputRecovers) {
  // Fig 6: with 4 MB buffers the same path sustains ~900 Mbps once the
  // window has ramped up.
  WanPair w;
  KernelTunables k = KernelTunables::grid_tuned();
  TcpChannel ch(w.network, w.a, w.b, k, k, SocketOptions{});
  SimTime done = -1;
  const double bytes = 512e6;  // long transfer so the ramp amortises
  ch.send(bytes, nullptr, [&] { done = w.sim.now(); });
  w.sim.run_until(120_s);
  ASSERT_GT(done, 0);
  const double mbps_measured = bytes * 8 / to_seconds(done) / 1e6;
  EXPECT_GT(mbps_measured, 700);
  EXPECT_GT(ch.loss_events(), 0);  // probing beyond the BDP now loses
}

TEST(Tcp, ClusterThroughputIsLineRateWithDefaults) {
  // Fig 5: on a 70 us RTT the default buffers dwarf the BDP.
  LanPair l;
  KernelTunables k;
  TcpChannel ch(l.network, l.a, l.b, k, k, SocketOptions{});
  SimTime done = -1;
  const double bytes = 64e6;
  ch.send(bytes, nullptr, [&] { done = l.sim.now(); });
  l.sim.run_until(10_s);
  ASSERT_GT(done, 0);
  const double mbps_measured = bytes * 8 / to_seconds(done) / 1e6;
  EXPECT_GT(mbps_measured, 850);
  EXPECT_LT(mbps_measured, 942);
}

TEST(Tcp, PacingConvergesFasterThanUnpaced) {
  // Fig 9 mechanism: the paced sender exits slow start without collapsing
  // to the initial window, so it reaches high throughput sooner.
  auto time_to_transfer = [](bool pacing) {
    WanPair w;
    KernelTunables k = KernelTunables::grid_tuned();
    SocketOptions o;
    o.pacing = pacing;
    TcpChannel ch(w.network, w.a, w.b, k, k, o);
    SimTime done = -1;
    ch.send(64e6, nullptr, [&] { done = w.sim.now(); });
    w.sim.run_until(120_s);
    return done;
  };
  const SimTime paced = time_to_transfer(true);
  const SimTime unpaced = time_to_transfer(false);
  ASSERT_GT(paced, 0);
  ASSERT_GT(unpaced, 0);
  EXPECT_LT(paced, unpaced);
}

TEST(Tcp, LockedInitialBuffersThrottle) {
  // GridMPI before raising tcp_*mem[1]: window pinned at 87380 B.
  WanPair w;
  KernelTunables k;
  SocketOptions o;
  o.lock_buffers_to_initial = true;
  TcpChannel ch(w.network, w.a, w.b, k, k, o);
  SimTime done = -1;
  const double bytes = 32e6;
  ch.send(bytes, nullptr, [&] { done = w.sim.now(); });
  w.sim.run_until(120_s);
  ASSERT_GT(done, 0);
  const double mbps_measured = bytes * 8 / to_seconds(done) / 1e6;
  EXPECT_LT(mbps_measured, 65);
  EXPECT_GT(mbps_measured, 40);
}

TEST(Tcp, SendBufferBackPressure) {
  // A 64 MB eager send into a 128 kB socket buffer must not "complete"
  // until nearly all bytes have drained.
  WanPair w;
  KernelTunables k;
  SocketOptions o;
  o.sndbuf = o.rcvbuf = 128 * 1024;
  TcpChannel ch(w.network, w.a, w.b, k, k, o);
  SimTime buffered = -1, delivered = -1;
  ch.send(64e6, [&] { buffered = w.sim.now(); },
          [&] { delivered = w.sim.now(); });
  w.sim.run_until(120_s);
  ASSERT_GT(buffered, 0);
  ASSERT_GT(delivered, 0);
  // Buffered only once (64 MB - 128 kB) have drained: essentially at the
  // end of the transfer.
  EXPECT_GT(buffered, delivered / 2);
  EXPECT_LE(buffered, delivered);
}

TEST(Tcp, SmallSendBuffersImmediately) {
  WanPair w;
  KernelTunables k;
  TcpChannel ch(w.network, w.a, w.b, k, k, SocketOptions{});
  SimTime buffered = -1;
  ch.send(1000, [&] { buffered = w.sim.now(); }, nullptr);
  w.sim.run_until(1_s);
  EXPECT_EQ(buffered, 0);  // fits in the empty socket buffer instantly
}

TEST(Tcp, QueuedSendsRespectBufferOccupancy) {
  WanPair w;
  KernelTunables k;
  SocketOptions o;
  o.sndbuf = o.rcvbuf = 100e3;
  TcpChannel ch(w.network, w.a, w.b, k, k, o);
  std::vector<SimTime> buffered(3, -1);
  for (int i = 0; i < 3; ++i)
    ch.send(60e3, [&buffered, i, &w] { buffered[static_cast<size_t>(i)] =
                                           w.sim.now(); },
            nullptr);
  w.sim.run_until(60_s);
  // First segment fits instantly; the second must wait for drain; the third
  // waits longer still.
  EXPECT_EQ(buffered[0], 0);
  EXPECT_GT(buffered[1], 0);
  EXPECT_GT(buffered[2], buffered[1]);
}

TEST(Tcp, CoroutineSendHelpers) {
  WanPair w;
  KernelTunables k = KernelTunables::grid_tuned();
  TcpChannel ch(w.network, w.a, w.b, k, k, SocketOptions{});
  SimTime t_buffered = -1, t_delivered = -1;
  auto prog = [](Simulation& sim, TcpChannel& c, SimTime& tb,
                 SimTime& td) -> Task<void> {
    co_await c.send_buffered(1e6);
    tb = sim.now();
    co_await c.send_delivered(1e6);
    td = sim.now();
  };
  w.sim.spawn(prog(w.sim, ch, t_buffered, t_delivered));
  w.sim.run_until(60_s);
  EXPECT_GE(t_buffered, 0);
  EXPECT_GT(t_delivered, t_buffered);
  EXPECT_GE(t_delivered, 5800_us);
}

TEST(Tcp, IdleDecayShrinksWindow) {
  WanPair w;
  KernelTunables k = KernelTunables::grid_tuned();
  TcpChannel ch(w.network, w.a, w.b, k, k, SocketOptions{});
  // Ramp up with a long transfer.
  ch.send(128e6, nullptr, nullptr);
  w.sim.run_until(30_s);
  const double ramped = ch.cwnd();
  EXPECT_GT(ramped, 1e6);
  // Idle for 10 s, then send again: cwnd must have decayed.
  w.sim.at(40_s, [&] { ch.send(1e6, nullptr, nullptr); });
  w.sim.run_until(40_s);
  EXPECT_LT(ch.cwnd(), ramped / 4);
}

TEST(Tcp, LossStatisticsAccumulate) {
  WanPair w;
  KernelTunables k = KernelTunables::grid_tuned();
  TcpChannel ch(w.network, w.a, w.b, k, k, SocketOptions{});
  ch.send(512e6, nullptr, nullptr);
  w.sim.run_until(60_s);
  EXPECT_GT(ch.loss_events(), 1);  // slow-start overshoot + CA probing
  EXPECT_GT(ch.bytes_delivered(), 0);
}

TEST(Tcp, ConnectionFromSelectsDirection) {
  WanPair w;
  KernelTunables k;
  TcpConnection conn(w.network, w.a, w.b, k, k, SocketOptions{});
  EXPECT_EQ(conn.from(w.a).source(), w.a);
  EXPECT_EQ(conn.from(w.a).destination(), w.b);
  EXPECT_EQ(conn.from(w.b).source(), w.b);
  EXPECT_EQ(&conn.a_to_b(), &conn.from(w.a));
}

// Throughput must be monotone (weakly) in buffer size: property sweep.
class BufferSweep : public ::testing::TestWithParam<double> {};

TEST_P(BufferSweep, ThroughputScalesWithWindowUntilLineRate) {
  const double buf = GetParam();
  WanPair w;
  KernelTunables k = KernelTunables::grid_tuned();
  SocketOptions o;
  o.sndbuf = o.rcvbuf = buf;
  TcpChannel ch(w.network, w.a, w.b, k, k, o);
  SimTime done = -1;
  const double bytes = 128e6;
  ch.send(bytes, nullptr, [&] { done = w.sim.now(); });
  w.sim.run_until(300_s);
  ASSERT_GT(done, 0);
  const double rate = bytes / to_seconds(done);
  // Ceiling 1: window-limited rate. Ceiling 2: line rate.
  const double window_limit = buf / to_seconds(2 * 5800_us);
  EXPECT_LE(rate, std::min(window_limit, ethernet_goodput(1e9)) * 1.02);
  // And at least half of the window-limited ceiling is achieved (ramp-up
  // and loss recovery cost the rest).
  EXPECT_GE(rate, std::min(window_limit, ethernet_goodput(1e9)) * 0.4);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BufferSweep,
                         ::testing::Values(32e3, 64e3, 128e3, 256e3, 512e3,
                                           1e6, 2e6, 4e6));

// TCP on both max-min solvers. Four senders, each behind its own access
// link, share one 1 GbE bottleneck to a receiver, so the four flows form
// one component, and on a LAN path most ticks re-apply an unchanged cap
// inside it: the incremental solver's no-solve path, its lazy settles and
// its completion merge all run here through slow start, losses and
// completions, with the global oracle as the specification.
struct SharedBottleneckRun {
  std::vector<std::pair<int, SimTime>> deliveries;  ///< (sender, ns), in order
  std::vector<int> losses;                          ///< per channel
  std::uint64_t events = 0;
  std::uint64_t solves = 0;  ///< incremental solver only
};

SharedBottleneckRun run_shared_bottleneck(net::SolverMode mode,
                                          SimTime one_way, double queue) {
  Simulation sim;
  net::Network network(sim);
  network.set_solver_mode(mode);
  const HostId receiver = network.add_host("r");
  const auto bottleneck =
      network.add_link("bottleneck", ethernet_goodput(1e9), one_way, queue);
  const KernelTunables k = KernelTunables::grid_tuned();
  std::vector<std::unique_ptr<TcpChannel>> channels;
  for (int i = 0; i < 4; ++i) {
    const HostId h = network.add_host("s" + std::to_string(i));
    const auto access = network.add_link("access" + std::to_string(i),
                                         ethernet_goodput(1e9), 10_us, 1e6);
    network.add_route(h, receiver, {access, bottleneck});
    channels.push_back(std::make_unique<TcpChannel>(network, h, receiver, k,
                                                    k, SocketOptions{}));
  }
  SharedBottleneckRun out;
  const std::vector<double> mix{1e3, 8e3, 64e3, 512e3, 4e6, 32e6};
  for (int i = 0; i < 4; ++i) {
    // Staggered starts; each sender rotates the mix so that small and
    // large transfers overlap.
    sim.at(i * 3_ms, [&, i] {
      for (std::size_t m = 0; m < mix.size(); ++m)
        channels[static_cast<std::size_t>(i)]->send(
            mix[(m + static_cast<std::size_t>(i)) % mix.size()], nullptr,
            [&out, &sim, i] { out.deliveries.emplace_back(i, sim.now()); });
    });
  }
  sim.run_until(120_s);
  for (const auto& ch : channels) out.losses.push_back(ch->loss_events());
  out.events = sim.events_processed();
  out.solves = network.solver_stats().solves;
  return out;
}

class SharedBottleneckOracle
    : public ::testing::TestWithParam<std::tuple<SimTime, double>> {};

TEST_P(SharedBottleneckOracle, IncrementalSolverMatchesTheOracle) {
  const auto [one_way, queue] = GetParam();
  const SharedBottleneckRun inc =
      run_shared_bottleneck(net::SolverMode::kIncremental, one_way, queue);
  const SharedBottleneckRun ora =
      run_shared_bottleneck(net::SolverMode::kGlobalOracle, one_way, queue);
  ASSERT_EQ(inc.deliveries.size(), 24u);
  EXPECT_EQ(inc.deliveries, ora.deliveries);
  EXPECT_EQ(inc.losses, ora.losses);
  EXPECT_EQ(inc.events, ora.events);
  // Every sender must congest the bottleneck. On the LAN path the windows
  // soon cover the BDP, so nearly every tick re-applies an unlimited cap
  // and solves nothing (55k events, 68 solves); on the WAN path the four
  // windows share the BDP, and nearly every tick moves a window-bound cap.
  for (int l : inc.losses) EXPECT_GT(l, 0);
  if (one_way < 1_ms) {
    EXPECT_LT(inc.solves * 100, inc.events);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LatencyAndQueue, SharedBottleneckOracle,
    ::testing::Combine(::testing::Values(35_us, 5800_us),
                       ::testing::Values(1e6, 128e3)));

}  // namespace
}  // namespace gridsim::tcp
