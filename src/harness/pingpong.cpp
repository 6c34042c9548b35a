#include "harness/pingpong.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "mpi/mpi.hpp"
#include "simcore/simulation.hpp"

namespace gridsim::harness {

namespace {

using mpi::Rank;

struct SweepState {
  const PingpongOptions* options;
  std::vector<PingpongPoint> points;
};

Task<void> ping_side(Rank& r, SweepState* state) {
  for (double size : state->options->sizes) {
    PingpongPoint point;
    point.bytes = size;
    point.min_one_way = kSimTimeNever;
    for (int round = 0; round < state->options->rounds; ++round) {
      const SimTime start = r.sim().now();
      co_await r.send(1, size, 0);
      (void)co_await r.recv(1, 0);
      const SimTime one_way = (r.sim().now() - start) / 2;
      point.min_one_way = std::min(point.min_one_way, one_way);
      const double mbps = size * 8.0 / to_seconds(std::max<SimTime>(
                                          one_way, 1)) / 1e6;
      point.max_bandwidth_mbps = std::max(point.max_bandwidth_mbps, mbps);
    }
    state->points.push_back(point);
  }
}

Task<void> pong_side(Rank& r, const PingpongOptions* options) {
  for (double size : options->sizes) {
    for (int round = 0; round < options->rounds; ++round) {
      (void)co_await r.recv(0, 0);
      co_await r.send(0, size, 0);
    }
  }
}

std::vector<net::HostId> endpoint_placement(const topo::Grid& grid,
                                            const PingpongEndpoints& ends) {
  return {grid.node(ends.site_a, ends.node_a),
          grid.node(ends.site_b, ends.node_b)};
}

}  // namespace

std::vector<double> pow2_sizes(double from, double to) {
  // Written so that NaN fails too.
  if (!(from > 0 && from <= to && std::isfinite(to))) {
    char msg[128];
    std::snprintf(msg, sizeof msg,
                  "pow2_sizes: need 0 < from <= to, both finite; got "
                  "from=%g, to=%g",
                  from, to);
    throw std::invalid_argument(msg);
  }
  std::vector<double> sizes;
  // The isfinite test ends the doubling when `to * 1.001` overflows.
  for (double s = from; s <= to * 1.001 && std::isfinite(s); s *= 2)
    sizes.push_back(s);
  return sizes;
}

std::vector<PingpongPoint> pingpong_sweep(const topo::GridSpec& spec,
                                          const PingpongEndpoints& ends,
                                          const profiles::ExperimentConfig& cfg,
                                          const PingpongOptions& options) {
  // With no round trip a point would report kSimTimeNever as its latency.
  if (options.rounds < 1)
    throw std::invalid_argument("pingpong_sweep: rounds must be at least 1, "
                                "got " +
                                std::to_string(options.rounds));
  Simulation sim;
  topo::Grid grid(sim, spec);
  auto faults = topo::install_faults(grid, cfg.faults);
  mpi::Job job(grid, endpoint_placement(grid, ends), cfg.profile, cfg.kernel);
  SweepState state;
  state.options = &options;
  sim.spawn(ping_side(job.rank(0), &state));
  sim.spawn(pong_side(job.rank(1), &options));
  sim.run();
  return std::move(state.points);
}

SimTime pingpong_min_latency(const topo::GridSpec& spec,
                             const PingpongEndpoints& ends,
                             const profiles::ExperimentConfig& cfg,
                             int rounds) {
  PingpongOptions options;
  options.sizes = {1.0};
  options.rounds = rounds;
  const auto points = pingpong_sweep(spec, ends, cfg, options);
  return points.at(0).min_one_way;
}

namespace {

struct SeriesState {
  double bytes;
  int count;
  std::vector<SlowstartSample> samples;
};

Task<void> series_ping(Rank& r, SeriesState* state) {
  for (int i = 0; i < state->count; ++i) {
    const SimTime start = r.sim().now();
    co_await r.send(1, state->bytes, 0);
    (void)co_await r.recv(1, 0);
    const SimTime one_way = (r.sim().now() - start) / 2;
    SlowstartSample s;
    s.at = start;
    s.mbps = state->bytes * 8.0 /
             to_seconds(std::max<SimTime>(one_way, 1)) / 1e6;
    state->samples.push_back(s);
  }
}

Task<void> series_pong(Rank& r, const SeriesState* state) {
  for (int i = 0; i < state->count; ++i) {
    (void)co_await r.recv(0, 0);
    co_await r.send(0, state->bytes, 0);
  }
}

}  // namespace

namespace {

/// Repeated bulk bursts over a dedicated TCP channel; stops itself once the
/// foreground experiment is expected to be over (count is bounded so the
/// simulation terminates).
Task<void> cross_traffic_body(Simulation* sim, tcp::TcpChannel* ch,
                              double burst, SimTime period, int bursts) {
  for (int i = 0; i < bursts; ++i) {
    co_await ch->send_delivered(burst);
    co_await sim->delay(period);
  }
}

}  // namespace

std::vector<SlowstartSample> slowstart_series(
    const topo::GridSpec& spec, const PingpongEndpoints& ends,
    const profiles::ExperimentConfig& cfg, double bytes, int count,
    const CrossTraffic& cross) {
  Simulation sim;
  topo::Grid grid(sim, spec);
  // Validate before spawning anything: a throw after spawn() would abandon
  // the suspended process frames (they only run and self-destroy once
  // sim.run() drains the queue).
  if (cross.burst_bytes > 0 &&
      (grid.nodes_at(ends.site_a) < 2 || grid.nodes_at(ends.site_b) < 2))
    throw std::invalid_argument("cross traffic needs 2 nodes per site");
  auto faults = topo::install_faults(grid, cfg.faults);
  mpi::Job job(grid, endpoint_placement(grid, ends), cfg.profile, cfg.kernel);
  SeriesState state;
  state.bytes = bytes;
  state.count = count;
  sim.spawn(series_ping(job.rank(0), &state));
  sim.spawn(series_pong(job.rank(1), &state));

  std::unique_ptr<tcp::TcpChannel> cross_channel;
  if (cross.burst_bytes > 0) {
    // The cross flow uses the next node of each site so it shares the WAN
    // uplinks but not the experiment NICs.
    tcp::SocketOptions opts;  // plain bulk TCP, auto-tuned
    cross_channel = std::make_unique<tcp::TcpChannel>(
        grid.network(), grid.node(ends.site_a, ends.node_a + 1),
        grid.node(ends.site_b, ends.node_b + 1), cfg.kernel, cfg.kernel,
        opts);
    // Enough bursts to outlive the measurement comfortably.
    const int bursts = 64;
    sim.spawn(cross_traffic_body(&sim, cross_channel.get(),
                                 cross.burst_bytes, cross.period, bursts));
  }
  sim.run();
  return std::move(state.samples);
}

}  // namespace gridsim::harness
