// Tests for the implementation profiles and tuning transforms, checked
// against the paper's published numbers (Tables 4 and 5, Figures 3/5/6/7).
#include <gtest/gtest.h>

#include "harness/pingpong.hpp"
#include "profiles/profiles.hpp"

namespace gridsim::profiles {
namespace {

using namespace gridsim::literals;
using harness::PingpongEndpoints;

TEST(Profiles, NamesAndOrder) {
  const auto impls = all_implementations();
  ASSERT_EQ(impls.size(), 4u);
  EXPECT_EQ(impls[0].name, "MPICH2");
  EXPECT_EQ(impls[1].name, "GridMPI");
  EXPECT_EQ(impls[2].name, "MPICH-Madeleine");
  EXPECT_EQ(impls[3].name, "OpenMPI");
}

TEST(Profiles, DefaultThresholdsMatchTable5) {
  EXPECT_DOUBLE_EQ(mpich2().eager_threshold, 256 * 1024);
  EXPECT_TRUE(std::isinf(gridmpi().eager_threshold));
  EXPECT_DOUBLE_EQ(mpich_madeleine().eager_threshold, 128 * 1024);
  EXPECT_DOUBLE_EQ(openmpi().eager_threshold, 64 * 1024);
}

TEST(Profiles, FullyTunedThresholdsMatchTable5) {
  // MPICH2 / Madeleine -> 65 MB, OpenMPI -> 32 MB (knob cap), GridMPI
  // untouched (no rendez-vous to begin with).
  EXPECT_DOUBLE_EQ(
      configure(mpich2(), TuningLevel::kFullyTuned).profile.eager_threshold,
      65.0 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(configure(mpich_madeleine(), TuningLevel::kFullyTuned)
                       .profile.eager_threshold,
                   65.0 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(
      configure(openmpi(), TuningLevel::kFullyTuned).profile.eager_threshold,
      32.0 * 1024 * 1024);
  EXPECT_TRUE(std::isinf(configure(gridmpi(), TuningLevel::kFullyTuned)
                             .profile.eager_threshold));
}

TEST(Profiles, TcpTuningSetsOpenMpiMcaBuffers) {
  EXPECT_DOUBLE_EQ(
      configure(openmpi(), TuningLevel::kDefault).profile.setsockopt_bytes,
      128 * 1024);
  EXPECT_DOUBLE_EQ(
      configure(openmpi(), TuningLevel::kTcpTuned).profile.setsockopt_bytes,
      4.0 * 1024 * 1024);
}

TEST(Profiles, KernelSelection) {
  const auto def = configure(mpich2(), TuningLevel::kDefault).kernel;
  EXPECT_DOUBLE_EQ(def.tcp_rmem[2], 174760);
  const auto tuned = configure(mpich2(), TuningLevel::kTcpTuned).kernel;
  EXPECT_DOUBLE_EQ(tuned.tcp_rmem[2], 4.0 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(tuned.tcp_rmem[1], 4.0 * 1024 * 1024);  // GridMPI's need
}

TEST(Profiles, ToStringCoversAllLevels) {
  EXPECT_EQ(to_string(TuningLevel::kDefault), "default");
  EXPECT_EQ(to_string(TuningLevel::kTcpTuned), "tcp-tuned");
  EXPECT_EQ(to_string(TuningLevel::kFullyTuned), "fully-tuned");
}

// --- Table 4: one-way latencies ------------------------------------------

struct Table4Case {
  const char* impl;
  double lan_expected_us;   // paper: in the Rennes cluster
  double wan_expected_us;   // paper: Rennes <-> Nancy
  double tolerance_us;
};

// Names the case by value: gtest's default printer dumps the raw bytes,
// pointer included, so the discovered test names would change every run.
void PrintTo(const Table4Case& c, std::ostream* os) { *os << c.impl; }

class Table4 : public ::testing::TestWithParam<Table4Case> {};

mpi::ImplProfile by_name(const std::string& name) {
  if (name == "TCP") return raw_tcp();
  for (auto& p : all_implementations())
    if (p.name == name) return p;
  throw std::out_of_range(name);
}

TEST_P(Table4, OneWayLatencyMatchesPaper) {
  const Table4Case c = GetParam();
  const auto cfg = configure(by_name(c.impl), TuningLevel::kDefault);
  const SimTime lan = harness::pingpong_min_latency(
      topo::GridSpec::single_cluster(2), PingpongEndpoints{0, 0, 0, 1}, cfg);
  const SimTime wan = harness::pingpong_min_latency(
      topo::GridSpec::rennes_nancy(1), PingpongEndpoints{0, 0, 1, 0}, cfg);
  EXPECT_NEAR(to_microseconds(lan), c.lan_expected_us, c.tolerance_us)
      << c.impl << " LAN";
  // The WAN column gets a wider tolerance: the paper's raw-TCP grid latency
  // (5812 us) carries ~6 us of kernel cost beyond the 11.6 ms ping RTT that
  // the model does not attribute (interrupts, coalescing). The *deltas*
  // between implementations are what Table 4 demonstrates and they are
  // checked by the per-impl expected values sharing this offset.
  EXPECT_NEAR(to_microseconds(wan), c.wan_expected_us - 6.0,
              c.tolerance_us + 2)
      << c.impl << " WAN";
}

INSTANTIATE_TEST_SUITE_P(
    PaperValues, Table4,
    ::testing::Values(Table4Case{"TCP", 41, 5812, 1.5},
                      Table4Case{"MPICH2", 46, 5818, 1.5},
                      Table4Case{"GridMPI", 46, 5819, 2.0},
                      Table4Case{"MPICH-Madeleine", 62, 5826, 2.0},
                      Table4Case{"OpenMPI", 46, 5820, 2.5}));

// --- Figures 3/5/6/7: bandwidth regimes ----------------------------------

double peak_bandwidth(const mpi::ImplProfile& impl, TuningLevel level,
                      bool grid) {
  const auto cfg = configure(impl, level);
  harness::PingpongOptions options;
  options.sizes = {64e6};
  options.rounds = 6;
  const auto spec = grid ? topo::GridSpec::rennes_nancy(1)
                         : topo::GridSpec::single_cluster(2);
  const PingpongEndpoints ends =
      grid ? PingpongEndpoints{0, 0, 1, 0} : PingpongEndpoints{0, 0, 0, 1};
  return harness::pingpong_sweep(spec, ends, cfg, options)
      .at(0)
      .max_bandwidth_mbps;
}

TEST(Figures, Fig5ClusterDefaultsReachLineRate) {
  for (const auto& impl : all_implementations()) {
    const double mbps = peak_bandwidth(impl, TuningLevel::kDefault, false);
    EXPECT_GT(mbps, 800) << impl.name;
    EXPECT_LT(mbps, 945) << impl.name;
  }
}

TEST(Figures, Fig3GridDefaultsCollapse) {
  for (const auto& impl : all_implementations()) {
    const double mbps = peak_bandwidth(impl, TuningLevel::kDefault, true);
    EXPECT_LT(mbps, 125) << impl.name;  // paper: none above 120 Mbps
    EXPECT_GT(mbps, 20) << impl.name;
  }
}

TEST(Figures, Fig6GridTcpTunedRecovers) {
  for (const auto& impl : all_implementations()) {
    const double mbps = peak_bandwidth(impl, TuningLevel::kTcpTuned, true);
    EXPECT_GT(mbps, 700) << impl.name;  // paper: ~900 Mbps
  }
}

TEST(Figures, Fig7FullTuningRemovesThresholdDip) {
  // At 256 kB (just above Madeleine's 128 kB default threshold), full
  // tuning must clearly beat TCP tuning alone for MPICH-Madeleine.
  const auto spec = topo::GridSpec::rennes_nancy(1);
  const PingpongEndpoints ends{0, 0, 1, 0};
  harness::PingpongOptions options;
  options.sizes = {256e3};
  options.rounds = 20;
  const auto tcp_only = harness::pingpong_sweep(
      spec, ends, configure(mpich_madeleine(), TuningLevel::kTcpTuned),
      options);
  const auto full = harness::pingpong_sweep(
      spec, ends, configure(mpich_madeleine(), TuningLevel::kFullyTuned),
      options);
  EXPECT_GT(full.at(0).max_bandwidth_mbps,
            tcp_only.at(0).max_bandwidth_mbps * 1.5);
}

TEST(Builder, MatchesConfigure) {
  // experiment(x).tuning(level) with no overrides is configure(x, level).
  for (const auto level : {TuningLevel::kDefault, TuningLevel::kTcpTuned,
                           TuningLevel::kFullyTuned}) {
    const ExperimentConfig built = experiment(openmpi()).tuning(level);
    const ExperimentConfig direct = configure(openmpi(), level);
    EXPECT_EQ(built.profile.name, direct.profile.name);
    EXPECT_DOUBLE_EQ(built.profile.eager_threshold,
                     direct.profile.eager_threshold);
    EXPECT_DOUBLE_EQ(built.profile.setsockopt_bytes,
                     direct.profile.setsockopt_bytes);
    EXPECT_DOUBLE_EQ(built.kernel.tcp_rmem[2], direct.kernel.tcp_rmem[2]);
  }
}

TEST(Builder, OverridesWinOverTuningLevel) {
  // kTcpTuned sets OpenMPI's socket buffers to 4 MB; a post-tuning override
  // must replace that, not be replaced by it.
  const ExperimentConfig cfg = experiment(openmpi())
                                   .tuning(TuningLevel::kTcpTuned)
                                   .setsockopt_bytes(512e3)
                                   .eager_threshold(1e12);
  EXPECT_DOUBLE_EQ(cfg.profile.setsockopt_bytes, 512e3);
  EXPECT_DOUBLE_EQ(cfg.profile.eager_threshold, 1e12);
  EXPECT_DOUBLE_EQ(cfg.kernel.tcp_rmem[2], 4.0 * 1024 * 1024);
}

TEST(Builder, IdentityKnobsApplyBeforeTuning) {
  const ExperimentConfig cfg = experiment(gridmpi())
                                   .label("GridMPI (pacing off)")
                                   .pacing(false)
                                   .tuning(TuningLevel::kFullyTuned);
  EXPECT_EQ(cfg.profile.name, "GridMPI (pacing off)");
  EXPECT_FALSE(cfg.profile.pacing);
  // Full tuning still leaves GridMPI without a rendez-vous threshold.
  EXPECT_TRUE(std::isinf(cfg.profile.eager_threshold));
}

TEST(Builder, KernelAndWanOverrides) {
  using namespace gridsim::literals;
  tcp::KernelTunables custom = tcp::KernelTunables::grid_tuned();
  custom.tcp_rmem[2] = 12345678;
  const ExperimentConfig cfg = experiment(mpich2())
                                   .tuning(TuningLevel::kTcpTuned)
                                   .kernel(custom)
                                   .wan_extra_overhead(250_us);
  EXPECT_DOUBLE_EQ(cfg.kernel.tcp_rmem[2], 12345678);
  EXPECT_EQ(cfg.profile.wan_extra_overhead, 250_us);
}

TEST(Figures, PingpongSweepSizesAreOrdered) {
  const auto sizes = harness::pow2_sizes(1024, 64e6 /* ~64 MB */);
  ASSERT_GE(sizes.size(), 16u);
  EXPECT_DOUBLE_EQ(sizes.front(), 1024);
  for (size_t i = 1; i < sizes.size(); ++i)
    EXPECT_DOUBLE_EQ(sizes[i], 2 * sizes[i - 1]);
}

}  // namespace
}  // namespace gridsim::profiles
