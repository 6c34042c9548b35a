// The packet-level TCP reference vs the fluid TcpChannel model: the two
// must agree on transfer times across the regimes the paper cares about.
#include <gtest/gtest.h>

#include <cmath>

#include "simcore/simulation.hpp"
#include "simnet/network.hpp"
#include "simtcp/packet_sim.hpp"
#include "simtcp/tcp.hpp"

namespace gridsim::tcp {
namespace {

using namespace gridsim::literals;

/// Fluid-model transfer time on an equivalent single-link path.
SimTime fluid_transfer(double bytes, double capacity, SimTime one_way,
                       double window_limit) {
  Simulation sim;
  net::Network n(sim);
  const auto a = n.add_host("a");
  const auto b = n.add_host("b");
  const auto l = n.add_link("l", capacity, one_way, 690 * 1448.0);
  n.add_route(a, b, {l});
  KernelTunables k = KernelTunables::grid_tuned();
  SocketOptions o;
  o.sndbuf = o.rcvbuf = window_limit;
  TcpChannel ch(n, a, b, k, k, o);
  SimTime done = -1;
  // Match the packet sim's completion semantics (last byte acked) by
  // adding one more one-way trip after delivery.
  ch.send(bytes, nullptr, [&] { done = sim.now() + one_way; });
  sim.run_until(600_s);
  return done;
}

struct Scenario {
  const char* label;
  double bytes;
  SimTime one_way;
  double window_limit;
  double tolerance;  // allowed relative error fluid vs packet
};

// Names the case by value: gtest's default printer dumps the raw bytes,
// pointer included, so the discovered test names would change every run.
void PrintTo(const Scenario& s, std::ostream* os) { *os << s.label; }

class FluidVsPacket : public ::testing::TestWithParam<Scenario> {};

TEST_P(FluidVsPacket, TransferTimesAgree) {
  const Scenario s = GetParam();
  PacketSimConfig cfg;
  cfg.one_way = s.one_way;
  cfg.window_limit_bytes = s.window_limit;
  const auto packet = packet_level_transfer(s.bytes, cfg);
  const SimTime fluid =
      fluid_transfer(s.bytes, cfg.capacity, s.one_way, s.window_limit);
  ASSERT_GT(packet.completion, 0) << s.label;
  ASSERT_GT(fluid, 0) << s.label;
  const double ratio = to_seconds(fluid) / to_seconds(packet.completion);
  EXPECT_GT(ratio, 1.0 - s.tolerance) << s.label << " packet="
                                      << to_seconds(packet.completion)
                                      << "s fluid=" << to_seconds(fluid);
  EXPECT_LT(ratio, 1.0 + s.tolerance) << s.label << " packet="
                                      << to_seconds(packet.completion)
                                      << "s fluid=" << to_seconds(fluid);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, FluidVsPacket,
    ::testing::Values(
        // Window-limited WAN (the paper's default-tunables regime): both
        // models must give the ~W/RTT rate.
        Scenario{"wan-window-limited", 16e6, 5800_us, 174760, 0.25},
        // Small-buffer WAN, even tighter window.
        Scenario{"wan-tiny-window", 4e6, 5800_us, 64e3, 0.25},
        // LAN: line rate, window irrelevant.
        Scenario{"lan-line-rate", 64e6, 35_us, 4e6, 0.15},
        // Short transfer, latency-dominated.
        Scenario{"wan-short", 64e3, 5800_us, 4e6, 0.35}));

TEST(PacketSim, BasicInvariants) {
  PacketSimConfig cfg;
  cfg.one_way = 1_ms;
  const auto res = packet_level_transfer(1e6, cfg);
  EXPECT_GT(res.completion, 2_ms);  // at least one round trip
  EXPECT_GE(res.packets_sent, 691); // ceil(1e6/1448)
  EXPECT_EQ(res.losses, 0);         // 4 MB window < queue+BDP? no overflow
  EXPECT_GT(res.max_cwnd_packets, 2);
}

TEST(PacketSim, TinyQueueCausesLossesAndRecovery) {
  PacketSimConfig cfg;
  cfg.one_way = 5800_us;
  cfg.queue_packets = 32;           // shallow bottleneck
  cfg.window_limit_bytes = 8e6;     // window allowed to overshoot
  const auto res = packet_level_transfer(32e6, cfg);
  EXPECT_GT(res.losses, 0);
  EXPECT_GT(res.retransmits, 0);
  EXPECT_GT(res.completion, 0);     // still completes
}

TEST(PacketSim, LargerWindowIsFasterUntilLineRate) {
  PacketSimConfig small, large;
  small.one_way = large.one_way = 5800_us;
  small.window_limit_bytes = 128e3;
  large.window_limit_bytes = 2e6;
  const auto s = packet_level_transfer(16e6, small);
  const auto l = packet_level_transfer(16e6, large);
  EXPECT_LT(l.completion, s.completion);
}

/// Constrains the window below queue + BDP so the only losses are the
/// injected ones.
PacketSimConfig no_natural_loss_config() {
  PacketSimConfig cfg;
  cfg.window_limit_bytes = 600 * cfg.mss;  // < 690-packet queue alone
  return cfg;
}

// Regression: a single mid-stream loss is repaired by one fast retransmit.
// The old timer discipline left the pre-recovery RTO armed, so it fired
// mid-recovery, collapsed cwnd to the initial window and retransmitted a
// second copy (retransmits == 2, rto_timeouts == 1 for one loss).
TEST(PacketSim, SingleLossRecoversByFastRetransmitWithoutRtoFiring) {
  PacketSimConfig cfg = no_natural_loss_config();
  const double bytes = 8e6;
  const auto clean = packet_level_transfer(bytes, cfg);
  ASSERT_EQ(clean.losses, 0);

  cfg.forced_drops = {500};
  const auto res = packet_level_transfer(bytes, cfg);
  EXPECT_EQ(res.losses, 1);
  EXPECT_EQ(res.retransmits, 1);
  EXPECT_EQ(res.rto_timeouts, 0);
  EXPECT_EQ(res.retransmit_drops, 0);
  // Fast recovery halves cwnd but must not collapse it to the initial
  // window, and completion must not pay a 200 ms timeout.
  EXPECT_GT(res.max_cwnd_packets, cfg.initial_window_packets + 1);
  EXPECT_GE(res.completion, clean.completion);
  EXPECT_LT(res.completion, clean.completion + cfg.rto);
}

// Losing the very last packet leaves no later packets to generate dup
// acks, so only the (single, re-armed) RTO timer can rescue the transfer.
TEST(PacketSim, TailLossIsRescuedByRto) {
  PacketSimConfig cfg = no_natural_loss_config();
  const double bytes = 4e6;
  const int total = static_cast<int>(std::ceil(bytes / cfg.mss));
  cfg.forced_drops = {total - 1};
  const auto res = packet_level_transfer(bytes, cfg);
  EXPECT_EQ(res.losses, 1);
  EXPECT_EQ(res.rto_timeouts, 1);
  EXPECT_EQ(res.retransmits, 1);
  EXPECT_GT(res.completion, cfg.rto);  // paid exactly one timeout
}

// The engine-facing contract of the timer/ack overhaul: a bulk transfer
// schedules O(packets) events and keeps the pending set window-sized. The
// one-closure-per-ack RTO discipline this replaced scheduled the same
// order of events but kept tens of thousands of dead 200 ms timers live
// in the queue at once.
TEST(PacketSim, EventCountAndQueueDepthStayWindowSized) {
  std::uint64_t events = 0;
  std::size_t peak_depth = 0;
  SimHooks hooks;
  hooks.on_finish = [&](Simulation& sim) {
    events = sim.events_processed();
    peak_depth = sim.peak_queue_depth();
  };
  const ScopedSimHooks observe(&hooks);  // the transfer's private engine
  PacketSimConfig cfg;
  const auto res = packet_level_transfer(64e6, cfg);
  ASSERT_GT(res.packets_sent, 0);
  ASSERT_GT(events, 0u);  // the guard saw the transfer's engine finish
  EXPECT_LT(events,
            4u * static_cast<std::uint64_t>(res.packets_sent));
  // Window limit is ~2762 packets; each contributes at most a departure
  // and a receive/ack event, plus the single RTO timer.
  EXPECT_LT(peak_depth, 6000u);
}

}  // namespace
}  // namespace gridsim::tcp
