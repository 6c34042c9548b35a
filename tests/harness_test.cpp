// Tests for the experiment harness: report formatting, ping-pong sweep
// properties, slow-start series, and the NPB campaign runner.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/npb_campaign.hpp"
#include "harness/pingpong.hpp"
#include "harness/report.hpp"
#include "profiles/profiles.hpp"

namespace gridsim::harness {
namespace {

TEST(Report, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512");
  EXPECT_EQ(format_bytes(1024), "1k");
  EXPECT_EQ(format_bytes(64 * 1024), "64k");
  EXPECT_EQ(format_bytes(1024 * 1024), "1M");
  EXPECT_EQ(format_bytes(64.0 * 1024 * 1024), "64M");
}

TEST(Report, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(10, 0), "10");
}

TEST(Report, Pow2SizesEndpoints) {
  const auto sizes = pow2_sizes(1024, 64.0 * 1024 * 1024);
  EXPECT_EQ(sizes.size(), 17u);  // 1k..64M inclusive
  EXPECT_DOUBLE_EQ(sizes.front(), 1024);
  EXPECT_DOUBLE_EQ(sizes.back(), 64.0 * 1024 * 1024);
}

TEST(Harness, Pow2SizesRejectsBadBounds) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  // Each of these doubled forever before: 0 stays 0, a negative start runs
  // to -inf, an infinite end is never passed.
  for (const auto& [from, to] :
       std::vector<std::pair<double, double>>{{0, 1024},
                                              {-1, 1024},
                                              {1024, kInf},
                                              {kInf, kInf},
                                              {-kInf, 1024},
                                              {kNaN, 1024},
                                              {1024, kNaN},
                                              {2048, 1024}}) {
    try {
      pow2_sizes(from, to);
      ADD_FAILURE() << "pow2_sizes(" << from << ", " << to << ") returned";
    } catch (const std::invalid_argument& e) {
      // The message names the offending bounds.
      std::ostringstream want;
      want << "from=" << from << ", to=" << to;
      EXPECT_NE(std::string(e.what()).find(want.str()), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(pow2_sizes(1024, 1024), std::vector<double>{1024});
  // An end so close to the largest double that `to * 1.001` overflows.
  const auto huge = pow2_sizes(1, 1.79e308);
  EXPECT_EQ(huge.size(), 1024u);  // 2^0 .. 2^1023
  EXPECT_TRUE(std::isfinite(huge.back()));
}

TEST(Harness, PingpongSweepRejectsZeroRounds) {
  PingpongOptions options;
  options.sizes = {1024};
  options.rounds = 0;
  EXPECT_THROW(pingpong_sweep(topo::GridSpec::single_cluster(2),
                              {0, 0, 0, 1},
                              profiles::experiment(profiles::mpich2()),
                              options),
               std::invalid_argument);
}

profiles::ExperimentConfig tuned() {
  return profiles::experiment(profiles::mpich2()).tuning(profiles::TuningLevel::kFullyTuned);
}

TEST(Pingpong, LatencyIsRttBound) {
  const SimTime lat = pingpong_min_latency(topo::GridSpec::rennes_nancy(1),
                                           {0, 0, 1, 0}, tuned());
  EXPECT_GT(lat, milliseconds(5));   // at least the propagation delay
  EXPECT_LT(lat, milliseconds(6));   // plus small overheads only
}

TEST(Pingpong, BandwidthMonotoneUntilPlateau) {
  PingpongOptions options;
  options.sizes = pow2_sizes(1024, 16.0 * 1024 * 1024);
  options.rounds = 8;
  const auto points = pingpong_sweep(topo::GridSpec::rennes_nancy(1),
                                     {0, 0, 1, 0}, tuned(), options);
  // Bandwidth grows (weakly) with message size on a tuned path.
  for (size_t i = 1; i < points.size(); ++i)
    EXPECT_GE(points[i].max_bandwidth_mbps,
              points[i - 1].max_bandwidth_mbps * 0.85)
        << "at size " << points[i].bytes;
  EXPECT_GT(points.back().max_bandwidth_mbps, 700);
}

TEST(Pingpong, MinLatencyNotAboveAnyRoundTime) {
  PingpongOptions options;
  options.sizes = {4096};
  options.rounds = 20;
  const auto points = pingpong_sweep(topo::GridSpec::single_cluster(2),
                                     {0, 0, 0, 1}, tuned(), options);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_GT(points[0].min_one_way, 0);
  EXPECT_GT(points[0].max_bandwidth_mbps, 0);
}

TEST(Slowstart, SeriesHasOneSamplePerMessage) {
  const auto series = slowstart_series(topo::GridSpec::rennes_nancy(1),
                                       {0, 0, 1, 0}, tuned(), 1e6, 50);
  ASSERT_EQ(series.size(), 50u);
  for (size_t i = 1; i < series.size(); ++i)
    EXPECT_GT(series[i].at, series[i - 1].at);
  // Later messages are faster than the first (window ramp-up).
  EXPECT_GT(series.back().mbps, series.front().mbps);
}

TEST(Slowstart, CrossTrafficNeedsTwoNodes) {
  CrossTraffic cross;
  cross.burst_bytes = 1e6;
  EXPECT_THROW(slowstart_series(topo::GridSpec::rennes_nancy(1),
                                {0, 0, 1, 0}, tuned(), 1e6, 10, cross),
               std::invalid_argument);
}

TEST(Slowstart, CrossTrafficSlowsConvergence) {
  auto spec = topo::GridSpec::rennes_nancy(2);
  for (auto& site : spec.sites) site.uplink_bps = 1e9;
  const auto clean = slowstart_series(spec, {0, 0, 1, 0}, tuned(), 1e6, 100);
  CrossTraffic cross;
  cross.burst_bytes = 24e6;
  cross.period = milliseconds(500);
  const auto noisy =
      slowstart_series(spec, {0, 0, 1, 0}, tuned(), 1e6, 100, cross);
  double clean_mean = 0, noisy_mean = 0;
  for (const auto& s : clean) clean_mean += s.mbps;
  for (const auto& s : noisy) noisy_mean += s.mbps;
  EXPECT_GT(clean_mean, noisy_mean);
}

TEST(NpbCampaign, MakespanAndTrafficConsistent) {
  const auto res = run_npb(topo::GridSpec::single_cluster(4), 4,
                           npb::Kernel::kLU, npb::Class::kS, tuned());
  EXPECT_GT(res.makespan, 0);
  EXPECT_GT(res.traffic.p2p_messages, 0u);
  EXPECT_GT(res.traffic.p2p_bytes, 0);
  // Mean message size consistent with the histogram.
  double histo_bytes = 0;
  std::uint64_t histo_msgs = 0;
  for (const auto& [size, count] : res.traffic.p2p_sizes) {
    histo_bytes += double(size) * double(count);
    histo_msgs += count;
  }
  EXPECT_EQ(histo_msgs, res.traffic.p2p_messages);
  EXPECT_NEAR(histo_bytes, res.traffic.p2p_bytes,
              res.traffic.p2p_bytes * 0.01);
}

TEST(NpbCampaign, DeterministicAcrossRuns) {
  const auto a = run_npb(topo::GridSpec::rennes_nancy(2), 4, npb::Kernel::kCG,
                         npb::Class::kS, tuned());
  const auto b = run_npb(topo::GridSpec::rennes_nancy(2), 4, npb::Kernel::kCG,
                         npb::Class::kS, tuned());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.traffic.p2p_messages, b.traffic.p2p_messages);
}

}  // namespace
}  // namespace gridsim::harness
