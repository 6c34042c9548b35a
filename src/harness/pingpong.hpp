// The paper's ping-pong micro-benchmark (Section 3.1).
//
// One process MPI_Sends messages to a peer that MPI_Recvs and echoes them.
// For each size the harness reports the minimum one-way latency and the
// maximum per-message bandwidth over the configured number of round trips
// (the paper uses min/max over 200 round trips to reject interference; the
// simulator is deterministic, so fewer rounds suffice — the min/max still
// matter because TCP ramps up across rounds).
#pragma once

#include <vector>

#include "profiles/profiles.hpp"
#include "simcore/simulation.hpp"
#include "simcore/time.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::harness {

struct PingpongPoint {
  double bytes = 0;
  SimTime min_one_way = 0;        ///< best one-way time (round trip / 2)
  double max_bandwidth_mbps = 0;  ///< best bytes / (round trip / 2)
};

struct PingpongEndpoints {
  int site_a = 0, node_a = 0;
  int site_b = 0, node_b = 1;
};

struct PingpongOptions {
  std::vector<double> sizes;  ///< message sizes, swept in order
  int rounds = 30;            ///< round trips per size
};

/// Power-of-two sizes from `from` to `to` inclusive (the paper: 1 kB..64 MB).
/// Throws std::invalid_argument unless 0 < from <= to, both finite.
std::vector<double> pow2_sizes(double from, double to);

/// Runs a full sweep in one job (TCP connections stay warm across sizes,
/// like a real ping-pong binary). Throws std::invalid_argument if
/// `options.rounds` < 1.
std::vector<PingpongPoint> pingpong_sweep(const topo::GridSpec& spec,
                                          const PingpongEndpoints& ends,
                                          const profiles::ExperimentConfig& cfg,
                                          const PingpongOptions& options,
                                          const SimHooks& hooks = {});

/// Minimum one-way latency for a 1-byte message (Table 4).
SimTime pingpong_min_latency(const topo::GridSpec& spec,
                             const PingpongEndpoints& ends,
                             const profiles::ExperimentConfig& cfg,
                             int rounds = 20, const SimHooks& hooks = {});

struct SlowstartSample {
  SimTime at = 0;      ///< send timestamp of this message
  double mbps = 0;     ///< per-message bandwidth bytes/(round trip / 2)
};

/// Periodic bursts from a second node pair sharing the WAN path, standing
/// in for the cross traffic of a shared testbed (Grid'5000's RENATER was
/// not dedicated to one experiment). Without contention a fluid model has
/// no early losses and slow start converges in a couple of round trips;
/// with it, the paper's seconds-long transient appears.
struct CrossTraffic {
  double burst_bytes = 0;  ///< 0 disables cross traffic
  SimTime period = seconds(1);
};

/// Fig 9: per-message bandwidth of `count` back-to-back messages of
/// `bytes`, starting from cold TCP connections.
std::vector<SlowstartSample> slowstart_series(
    const topo::GridSpec& spec, const PingpongEndpoints& ends,
    const profiles::ExperimentConfig& cfg, double bytes, int count,
    const CrossTraffic& cross = {}, const SimHooks& hooks = {});

}  // namespace gridsim::harness
