// Packet-level TCP reference simulation.
//
// The fluid TcpChannel model makes several approximations (per-RTT cwnd
// epochs, rate caps instead of packets, analytic loss detection). This
// module is its ground truth: a single-path, packet-granular TCP sender —
// droptail bottleneck queue, per-packet cumulative acks, slow start, Reno
// congestion avoidance, fast retransmit on three duplicate acks and a
// coarse retransmission timeout.
//
// Timer discipline: each connection keeps a single outstanding RTO timer
// event. Forward progress re-arms it by pushing a deadline; a fire before
// the deadline reschedules itself instead of acting. The receiver also
// stops emitting duplicate acks beyond the third for the same cumulative
// value (they are inert in this model — there is no window inflation), so
// a bulk transfer schedules O(packets) events with O(window) of them
// pending at any instant, instead of accumulating one live 200 ms timer
// closure per ack.
//
// It is deliberately limited to one connection on one path: its job is to
// validate the fluid model's transfer times and loss behaviour
// (tests/packet_sim_test.cpp), not to run experiments.
#pragma once

#include <vector>

#include "simcore/simulation.hpp"
#include "simfault/fault.hpp"
#include "simtcp/tcp.hpp"

namespace gridsim::tcp {

struct PacketSimConfig {
  double capacity = ethernet_goodput(1e9);  ///< payload bytes/s
  SimTime one_way = microseconds(5800);     ///< propagation, each direction
  int queue_packets = 690;                  ///< droptail bottleneck (~1 MB)
  double mss = 1448;
  double window_limit_bytes = 4e6;          ///< socket buffer bound
  int initial_window_packets = 2;
  SimTime rto = milliseconds(200);
  /// Test hook: sequence numbers dropped on their first enqueue attempt
  /// (counted as losses). Retransmissions of the same sequence go through,
  /// so each entry injects exactly one deterministic, isolated loss.
  std::vector<int> forced_drops;
  /// Random channel loss (i.i.d. or Gilbert-Elliott bursts), sampled on
  /// EVERY transmission attempt including retransmits — the RTO path
  /// retries until a copy survives, so transfers still complete for any
  /// loss rate below 1. Inactive by default.
  simfault::PacketLossSpec loss;
};

struct PacketSimResult {
  SimTime completion = 0;  ///< last byte acked
  int packets_sent = 0;    ///< transmission attempts, including retransmits
  int losses = 0;          ///< queue drops (droptail + forced)
  int retransmits = 0;
  int rto_timeouts = 0;      ///< genuine RTO expiries (cwnd collapses)
  int retransmit_drops = 0;  ///< recovery retransmits lost to a full queue
  int injected_losses = 0;   ///< drops taken from PacketSimConfig::loss
  double max_cwnd_packets = 0;
};

/// Runs one bulk transfer of `bytes` to completion in a private Simulation
/// and returns the outcome. Like every Simulation, that engine reports to
/// the thread's hooks guard, if any (simcore/simulation.hpp).
PacketSimResult packet_level_transfer(double bytes, const PacketSimConfig& cfg);

}  // namespace gridsim::tcp
