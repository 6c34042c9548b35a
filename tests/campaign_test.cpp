// Campaign engine tests: the parallel runner must be indistinguishable from
// the serial one (per-scenario trace digests, registration-order
// aggregation), one misbehaving scenario must not take the campaign down
// with it, and three catalog scenarios have pinned digests that repeated runs
// reproduce.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "collectives/guidelines.hpp"
#include "harness/campaign.hpp"
#include "harness/determinism.hpp"
#include "harness/scenario.hpp"
#include "scenarios/catalog.hpp"
#include "simcore/glob.hpp"
#include "simcore/simulation.hpp"
#include "simcore/sync.hpp"
#include "simcore/trace.hpp"

namespace gridsim::harness {
namespace {

/// A small but genuinely event-driven workload: `depth` chained timers plus
/// a coroutine ping-pong, so each scenario folds a non-trivial trace into
/// its digest. Runs its own Simulation, which the campaign observes without
/// being handed anything.
ScenarioResult timer_chain(int depth) {
  Simulation sim;
  std::uint64_t ticks = 0;
  std::function<void(int)> arm = [&](int remaining) {
    if (remaining == 0) return;
    sim.after(static_cast<SimTime>(remaining * 3 + 1), [&, remaining] {
      ++ticks;
      sim.tracer().record(sim.now(), TraceKind::kPhase, "tick",
                          static_cast<double>(remaining));
      arm(remaining - 1);
    });
  };
  arm(depth);
  Mailbox<int> a(sim), b(sim);
  sim.spawn([](Simulation& s, Mailbox<int>& in, Mailbox<int>& out,
               int rounds) -> Task<void> {
    for (int i = 0; i < rounds; ++i) {
      const int v = co_await in.pop();
      co_await s.delay(2);
      out.push(v + 1);
    }
  }(sim, a, b, depth));
  sim.spawn([](Mailbox<int>& in, Mailbox<int>& out, int rounds) -> Task<void> {
    for (int i = 0; i < rounds; ++i) out.push(co_await in.pop());
  }(b, a, depth));
  a.push(0);
  sim.run();
  ScenarioResult res;
  res.add("ticks", static_cast<double>(ticks));
  res.add("final_ns", static_cast<double>(sim.now()), "ns");
  res.note = "chain of depth " + std::to_string(depth) + " completed";
  return res;
}

ScenarioRegistry small_registry() {
  ScenarioRegistry reg;
  for (int depth : {5, 9, 13, 17, 21, 25}) {
    ScenarioSpec spec;
    spec.name = "chain/depth" + std::to_string(depth);
    spec.group = "chain";
    spec.description = "timer chain of depth " + std::to_string(depth);
    spec.expected_metrics = {"ticks", "final_ns"};
    spec.run = [depth](const ScenarioContext&) { return timer_chain(depth); };
    reg.add(std::move(spec));
  }
  return reg;
}

TEST(GlobMatch, StarAndQuestionMark) {
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("fig3*", "fig3/MPICH2"));
  EXPECT_FALSE(glob_match("fig3*", "fig13/MPICH2"));
  EXPECT_TRUE(glob_match("table?", "table4"));
  EXPECT_FALSE(glob_match("table?", "table45"));
  EXPECT_TRUE(glob_match("*MPICH*", "fig3/MPICH2"));
  EXPECT_FALSE(glob_match("", "x"));
  EXPECT_TRUE(glob_match("", ""));
  // Link names as the fault specs select them: "*-*" is the WAN backbone
  // (both directions), not a site's nodes or its uplink.
  EXPECT_TRUE(glob_match("*-*", "rennes-nancy"));
  EXPECT_TRUE(glob_match("*-*", "rennes-nancy.rev"));
  EXPECT_FALSE(glob_match("*-*", "rennes0"));
  EXPECT_FALSE(glob_match("*-*", "rennes.up"));
  EXPECT_TRUE(glob_match("rennes.up", "rennes.up"));
  EXPECT_FALSE(glob_match("rennes.up", "rennes.up.rev"));
}

TEST(ScenarioRegistry, RejectsNameCollisions) {
  ScenarioRegistry reg;
  ScenarioSpec spec;
  spec.name = "g/a";
  spec.group = "g";
  spec.run = [](const ScenarioContext&) { return ScenarioResult{}; };
  reg.add(spec);
  EXPECT_THROW(reg.add(spec), std::invalid_argument);
  ScenarioSpec unnamed;
  unnamed.run = spec.run;
  EXPECT_THROW(reg.add(unnamed), std::invalid_argument);
  ScenarioSpec no_fn;
  no_fn.name = "g/b";
  EXPECT_THROW(reg.add(no_fn), std::invalid_argument);
}

TEST(ScenarioRegistry, RejectsRendererCollisions) {
  ScenarioRegistry reg;
  reg.set_renderer("g", [](const auto&, const auto&) { return ""; });
  EXPECT_THROW(
      reg.set_renderer("g", [](const auto&, const auto&) { return ""; }),
      std::invalid_argument);
}

TEST(ScenarioRegistry, MatchByNameAndGroup) {
  const auto reg = small_registry();
  EXPECT_EQ(reg.match("*").size(), 6u);
  EXPECT_EQ(reg.match("chain").size(), 6u);  // group name matches too
  EXPECT_EQ(reg.match("chain/depth5").size(), 1u);
  EXPECT_TRUE(reg.match("nope*").empty());
  ASSERT_NE(reg.find("chain/depth13"), nullptr);
  EXPECT_EQ(reg.find("chain/depth999"), nullptr);
}

TEST(Campaign, ParallelDigestsMatchSerial) {
  const auto reg = small_registry();
  CampaignOptions options;
  options.filter = "*";
  options.seed = 42;
  options.jobs = 1;
  const auto serial = run_campaign(reg, options);
  ASSERT_EQ(serial.outcomes.size(), 6u);
  for (const auto& o : serial.outcomes) {
    EXPECT_TRUE(o.ok) << o.name << ": " << o.error;
    EXPECT_GT(o.trace_events, 0u) << o.name;
    EXPECT_NE(o.digest, 0u) << o.name;
  }
  for (int jobs : {2, 8}) {
    options.jobs = jobs;
    const auto parallel = run_campaign(reg, options);
    ASSERT_EQ(parallel.outcomes.size(), serial.outcomes.size());
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
      // Same registration order, same digest, bit for bit.
      EXPECT_EQ(parallel.outcomes[i].name, serial.outcomes[i].name);
      EXPECT_EQ(parallel.outcomes[i].digest, serial.outcomes[i].digest)
          << serial.outcomes[i].name << " at jobs=" << jobs;
      EXPECT_EQ(parallel.outcomes[i].trace_events,
                serial.outcomes[i].trace_events);
      EXPECT_EQ(parallel.outcomes[i].final_time,
                serial.outcomes[i].final_time);
    }
  }
}

TEST(Campaign, SeedChangesDigests) {
  const auto reg = small_registry();
  CampaignOptions options;
  options.jobs = 1;
  options.seed = 1;
  const auto one = run_campaign(reg, options);
  options.seed = 2;
  const auto two = run_campaign(reg, options);
  ASSERT_EQ(one.outcomes.size(), two.outcomes.size());
  EXPECT_NE(one.outcomes[0].digest, two.outcomes[0].digest);
}

TEST(Campaign, FailureIsolation) {
  auto reg = small_registry();
  ScenarioSpec throwing;
  throwing.name = "bad/throws";
  throwing.group = "bad";
  throwing.run = [](const ScenarioContext&) -> ScenarioResult {
    throw std::runtime_error("deliberate failure");
  };
  reg.add(std::move(throwing));
  ScenarioSpec missing;
  missing.name = "bad/schema";
  missing.group = "bad";
  missing.expected_metrics = {"never_produced"};
  missing.run = [](const ScenarioContext&) { return timer_chain(3); };
  reg.add(std::move(missing));

  CampaignOptions options;
  options.jobs = 4;
  const auto report = run_campaign(reg, options);
  ASSERT_EQ(report.outcomes.size(), 8u);
  EXPECT_EQ(report.failures(), 2u);
  // The six healthy scenarios still completed.
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_TRUE(report.outcomes[i].ok) << report.outcomes[i].name;
  EXPECT_FALSE(report.outcomes[6].ok);
  EXPECT_NE(report.outcomes[6].error.find("deliberate failure"),
            std::string::npos);
  EXPECT_FALSE(report.outcomes[7].ok);
  EXPECT_NE(report.outcomes[7].error.find("never_produced"),
            std::string::npos);
}

TEST(Campaign, TimeoutWatchdogDegradesGracefully) {
  auto reg = small_registry();
  ScenarioSpec spinning;
  spinning.name = "bad/spins";
  spinning.group = "bad";
  spinning.run = [](const ScenarioContext&) -> ScenarioResult {
    // A runaway workload: virtual time advances forever, so only the
    // wall-clock watchdog can stop it. It never names the campaign's hooks:
    // the Simulation picks up the watchdog on its own.
    Simulation sim;
    std::function<void()> spin = [&] { sim.after(10, spin); };
    spin();
    sim.run();
    return ScenarioResult{};
  };
  reg.add(std::move(spinning));

  CampaignOptions options;
  options.jobs = 2;
  options.timeout_s = 0.05;
  const auto report = run_campaign(reg, options);
  ASSERT_EQ(report.outcomes.size(), 7u);
  // The six healthy scenarios finish well inside the budget...
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(report.outcomes[i].ok) << report.outcomes[i].name;
    EXPECT_EQ(report.outcomes[i].status, "ok") << report.outcomes[i].name;
  }
  // ...and the runaway one is reported as a timeout, not a crash.
  const auto& timed_out = report.outcomes[6];
  EXPECT_FALSE(timed_out.ok);
  EXPECT_EQ(timed_out.status, "timeout");
  EXPECT_NE(timed_out.error.find("wall-clock budget"), std::string::npos)
      << timed_out.error;
  EXPECT_EQ(report.failures(), 1u);

  // The JSON report carries the status for shell tooling.
  const std::string path = ::testing::TempDir() + "campaign_timeout.json";
  ASSERT_TRUE(write_campaign_json(path, report));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  EXPECT_NE(doc.find("\"status\": \"timeout\""), std::string::npos);
  EXPECT_NE(doc.find("\"status\": \"ok\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Campaign, HugeTimeoutNeverFires) {
  // fig3/TCP runs more than one watchdog check interval (16384 events) in
  // about 10 ms. A budget the steady clock cannot hold from now (1e10 s is
  // 1e19 ns, past INT64_MAX) must arm nothing, not a deadline in the past.
  for (const double budget_s :
       {1e10, 1e12, std::numeric_limits<double>::infinity()}) {
    CampaignOptions options;
    options.filter = "fig3/TCP";
    options.timeout_s = budget_s;
    const auto report = run_campaign(scenarios::paper_registry(), options);
    ASSERT_EQ(report.outcomes.size(), 1u);
    EXPECT_EQ(report.outcomes[0].status, "ok")
        << "timeout_s=" << budget_s << ": " << report.outcomes[0].error;
  }
}

TEST(Campaign, RejectsNegativeOrNanTimeout) {
  for (const double budget_s :
       {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    CampaignOptions options;
    options.filter = "chain/depth5";
    options.timeout_s = budget_s;
    EXPECT_THROW(run_campaign(small_registry(), options),
                 std::invalid_argument)
        << "timeout_s=" << budget_s;
  }
}

TEST(Campaign, RawSimulationIsDigested) {
  // A closure that builds its Simulation by hand and never names the
  // campaign's hooks is digested all the same, among other scenarios.
  auto reg = small_registry();
  ScenarioSpec raw;
  raw.name = "raw/sim";
  raw.group = "raw";
  raw.run = [](const ScenarioContext&) {
    Simulation sim;
    for (SimTime t : {100, 250, 400})
      sim.at(t, [&sim] {
        sim.tracer().record(sim.now(), TraceKind::kPhase, "raw", 1.0);
      });
    sim.run();
    return ScenarioResult{};
  };
  reg.add(std::move(raw));

  CampaignOptions options;
  options.filter = "*";
  options.jobs = 1;
  const auto serial = run_campaign(reg, options);
  ASSERT_EQ(serial.outcomes.size(), 7u);
  const ScenarioOutcome& row = serial.outcomes[6];
  EXPECT_EQ(row.name, "raw/sim");
  EXPECT_TRUE(row.ok) << row.error;
  EXPECT_EQ(row.simulations, 1u);
  EXPECT_EQ(row.trace_events, 3u);
  EXPECT_EQ(row.final_time, 400);

  options.jobs = 4;
  const auto parallel = run_campaign(reg, options);
  ASSERT_EQ(parallel.outcomes.size(), 7u);
  const ScenarioOutcome& again = parallel.outcomes[6];
  EXPECT_EQ(again.digest, row.digest);
  EXPECT_EQ(again.simulations, row.simulations);
  EXPECT_EQ(again.trace_events, row.trace_events);
  EXPECT_EQ(again.final_time, row.final_time);
}

TEST(Campaign, StatusFieldIsOkWithoutWatchdog) {
  const auto reg = small_registry();
  CampaignOptions options;
  options.filter = "chain/depth5";
  const auto report = run_campaign(reg, options);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].status, "ok");
}

TEST(Campaign, FilterSelectsSubset) {
  const auto reg = small_registry();
  CampaignOptions options;
  options.filter = "chain/depth1?";
  const auto report = run_campaign(reg, options);
  ASSERT_EQ(report.outcomes.size(), 2u);  // depths 13 and 17
  EXPECT_EQ(report.filter, "chain/depth1?");
}

TEST(Campaign, JsonReportRoundTrip) {
  const auto reg = small_registry();
  CampaignOptions options;
  options.filter = "chain/depth5";
  const auto report = run_campaign(reg, options);
  const std::string path = ::testing::TempDir() + "campaign_test.json";
  ASSERT_TRUE(write_campaign_json(path, report));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  EXPECT_NE(doc.find("\"gridsim-campaign/1\""), std::string::npos);
  EXPECT_NE(doc.find("\"chain/depth5\""), std::string::npos);
  EXPECT_NE(doc.find("\"digest\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Campaign, ReportWritersFailOnAFullDisk) {
  // Every write succeeds into the stdio buffer; only the flush at fclose
  // hits ENOSPC, so a writer that ignores fclose claims a report it lost.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const auto report =
      run_campaign(small_registry(), {.filter = "chain/depth5"});
  EXPECT_FALSE(write_campaign_json("/dev/full", report));
  coll::GuidelineReport coll_report;
  coll_report.cells.emplace_back();
  EXPECT_FALSE(coll::write_coll_json("/dev/full", coll_report));
}

TEST(Campaign, RenderGroupFallsBackWithoutRenderer) {
  const auto reg = small_registry();
  CampaignOptions options;
  options.filter = "chain/depth5";
  const auto report = run_campaign(reg, options);
  const std::string text = render_group(reg, "chain", report);
  EXPECT_NE(text.find("chain/depth5"), std::string::npos);
}

// --- Pinned catalog digests -----------------------------------------------
//
// The campaign digest is the simulator's determinism check. These pins sit
// on three cheap catalog scenarios, one per workload shape of the paper: a
// fully tuned MPICH2 ping-pong over the Rennes--Nancy WAN, an NPB CG class-S
// run over two sites, and a GridMPI ray2mesh campaign over four sites. If a
// pin fails, the engine's event schedule changed: either an intentional
// model change (re-pin the values and say so in the commit) or a
// nondeterminism/ordering bug (fix it).

struct DigestPin {
  const char* shape;  ///< workload shape: pingpong, nas or ray2mesh
  const char* name;
  std::uint64_t digest;
  std::uint64_t trace_events;
  std::int64_t final_time;  ///< ns
};

constexpr DigestPin kSeed42Pins[] = {
    {"pingpong", "fig7/MPICH2", 0xdbacf1c9fc4d7bcfULL, 2772, 31'858'850'391},
    {"nas", "mc/cg-MPICH2", 0x78db1e35005dc7c0ULL, 5466, 2'394'872'606},
    {"ray2mesh", "robust/flap-ray2mesh", 0x858ee753188f8eafULL, 4460,
     87'583'455'214},
};

const DigestPin& pin_for(std::string_view shape) {
  for (const DigestPin& pin : kSeed42Pins)
    if (shape == pin.shape) return pin;
  throw std::invalid_argument("no pinned scenario for " + std::string(shape));
}

void expect_pinned(const ScenarioOutcome& o, const DigestPin& pin, int jobs) {
  EXPECT_EQ(o.name, pin.name);
  EXPECT_TRUE(o.ok) << o.name << ": " << o.error;
  EXPECT_EQ(o.digest, pin.digest)
      << o.name << " at jobs=" << jobs << ": actual " << std::hex << o.digest;
  EXPECT_EQ(o.trace_events, pin.trace_events) << o.name << " at jobs=" << jobs;
  EXPECT_EQ(o.final_time, pin.final_time) << o.name << " at jobs=" << jobs;
}

/// One catalog scenario run by name from the full paper registry, as
/// `gridsim campaign --filter NAME --seed SEED` runs it.
ScenarioOutcome run_catalog(const std::string& name, std::uint64_t seed) {
  CampaignOptions options;
  options.filter = name;
  options.seed = seed;
  const auto report = run_campaign(scenarios::paper_registry(), options);
  EXPECT_EQ(report.outcomes.size(), 1u) << name;
  return report.outcomes.at(0);
}

TEST(CatalogDigests, PinnedForSeed42) {
  // The pinned scenarios, copied from the paper catalog into one registry
  // so that a single campaign can run them on separate worker threads.
  ScenarioRegistry reg;
  for (const DigestPin& pin : kSeed42Pins) {
    const ScenarioSpec* spec = scenarios::paper_registry().find(pin.name);
    ASSERT_NE(spec, nullptr) << pin.name;
    reg.add(*spec);
  }
  CampaignOptions options;
  options.seed = 42;
  for (int jobs : {1, 3}) {
    options.jobs = jobs;
    const auto report = run_campaign(reg, options);
    ASSERT_EQ(report.outcomes.size(), std::size(kSeed42Pins));
    for (std::size_t i = 0; i < report.outcomes.size(); ++i)
      expect_pinned(report.outcomes[i], kSeed42Pins[i], jobs);
  }
}

TEST(CatalogDigests, SeedSaltsOnlyTheDigest) {
  const ScenarioOutcome a = run_catalog("fig7/MPICH2", 1);
  const ScenarioOutcome b = run_catalog("fig7/MPICH2", 2);
  EXPECT_NE(a.digest, b.digest);
  // The seed salts the fold; the simulated behaviour itself is unchanged.
  EXPECT_EQ(a.trace_events, b.trace_events);
  EXPECT_EQ(a.final_time, b.final_time);
}

// Each workload shape's pinned scenario, run twice in one process at seed
// 1: the second run must reproduce the first bit for bit.
class DeterminismAudit : public ::testing::TestWithParam<const char*> {};

TEST_P(DeterminismAudit, RepeatedRunsProduceIdenticalDigests) {
  const std::string name = pin_for(GetParam()).name;
  const ScenarioOutcome first = run_catalog(name, 1);
  const ScenarioOutcome second = run_catalog(name, 1);
  EXPECT_TRUE(first.ok) << name << ": " << first.error;
  EXPECT_GT(first.trace_events, 0u);
  EXPECT_GT(first.final_time, 0);
  EXPECT_EQ(first.digest, second.digest) << name;
  EXPECT_EQ(first.trace_events, second.trace_events);
  EXPECT_EQ(first.final_time, second.final_time);
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, DeterminismAudit,
    ::testing::Values("pingpong", "nas", "ray2mesh"),
    [](const auto& param_info) { return std::string(param_info.param); });

// The ping-pong pin through the full paper registry, filtered by name.
TEST(DeterminismAudit, PingpongDigestIsPinnedForSeed42) {
  const DigestPin& pin = pin_for("pingpong");
  expect_pinned(run_catalog(pin.name, 42), pin, /*jobs=*/1);
}

TEST(TraceDigest, SensitiveToEveryEventField) {
  const auto digest = [](const TraceEvent& e) {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    fold_trace_event(h, e);
    return h;
  };
  const TraceEvent base{10, TraceKind::kMessage, "p2p", 1024.0, "x"};
  const std::uint64_t d0 = digest(base);

  TraceEvent changed = base;
  changed.at = 11;
  EXPECT_NE(digest(changed), d0);

  changed = base;
  changed.kind = TraceKind::kFlow;
  EXPECT_NE(digest(changed), d0);

  changed = base;
  changed.subject = "collective";
  EXPECT_NE(digest(changed), d0);

  changed = base;
  changed.value = std::nextafter(1024.0, 2048.0);
  EXPECT_NE(digest(changed), d0);

  changed = base;
  changed.detail = "y";
  EXPECT_NE(digest(changed), d0);
}

// --- Golden-digest determinism for the fault-injection catalog -------------
//
// The robust/* scenarios exercise every injector (loss episodes, jitter,
// flap, cross traffic, packet-level loss). Their digests must be
// byte-identical across job counts and across reruns with the same seed, and
// must move when the seed moves — otherwise "seeded fault schedule" would be
// an empty promise. These run the real paper registry, so they are the
// slowest tests in this binary; the subset is kept to the cheap robust
// scenarios plus a spot-check pair of expensive ones.

TEST(RobustCatalog, DigestsStableAcrossJobsAndReruns) {
  const auto& reg = scenarios::paper_registry();
  CampaignOptions options;
  options.filter = "robust/*";
  options.seed = 42;
  options.jobs = 1;
  const auto serial = run_campaign(reg, options);
  ASSERT_EQ(serial.outcomes.size(), 10u);
  for (const auto& o : serial.outcomes) {
    EXPECT_TRUE(o.ok) << o.name << ": " << o.error;
    EXPECT_GT(o.trace_events, 0u) << o.name;
    EXPECT_NE(o.digest, 0u) << o.name;
  }
  for (int jobs : {2, 8}) {
    options.jobs = jobs;
    const auto parallel = run_campaign(reg, options);
    ASSERT_EQ(parallel.outcomes.size(), serial.outcomes.size());
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
      EXPECT_EQ(parallel.outcomes[i].name, serial.outcomes[i].name);
      EXPECT_EQ(parallel.outcomes[i].digest, serial.outcomes[i].digest)
          << serial.outcomes[i].name << " at jobs=" << jobs;
      EXPECT_EQ(parallel.outcomes[i].trace_events,
                serial.outcomes[i].trace_events)
          << serial.outcomes[i].name << " at jobs=" << jobs;
      EXPECT_EQ(parallel.outcomes[i].final_time, serial.outcomes[i].final_time)
          << serial.outcomes[i].name << " at jobs=" << jobs;
    }
  }
  // Rerun at jobs=1: a second process-local run must reproduce every digest.
  options.jobs = 1;
  const auto rerun = run_campaign(reg, options);
  ASSERT_EQ(rerun.outcomes.size(), serial.outcomes.size());
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i)
    EXPECT_EQ(rerun.outcomes[i].digest, serial.outcomes[i].digest)
        << serial.outcomes[i].name;
}

TEST(RobustCatalog, SeedMovesFaultSchedules) {
  const auto& reg = scenarios::paper_registry();
  CampaignOptions options;
  // One fluid-level and one packet-level scenario keep this test fast while
  // covering both injection paths.
  options.filter = "robust/flap-pingpong";
  options.jobs = 1;
  options.seed = 42;
  const auto a = run_campaign(reg, options);
  options.seed = 7;
  const auto b = run_campaign(reg, options);
  ASSERT_EQ(a.outcomes.size(), 1u);
  ASSERT_EQ(b.outcomes.size(), 1u);
  EXPECT_TRUE(a.outcomes[0].ok) << a.outcomes[0].error;
  EXPECT_TRUE(b.outcomes[0].ok) << b.outcomes[0].error;
  EXPECT_NE(a.outcomes[0].digest, b.outcomes[0].digest);

  options.filter = "robust/packet-loss";
  options.seed = 42;
  const auto c = run_campaign(reg, options);
  options.seed = 7;
  const auto d = run_campaign(reg, options);
  ASSERT_EQ(c.outcomes.size(), 1u);
  ASSERT_EQ(d.outcomes.size(), 1u);
  EXPECT_TRUE(c.outcomes[0].ok) << c.outcomes[0].error;
  EXPECT_TRUE(d.outcomes[0].ok) << d.outcomes[0].error;
  EXPECT_NE(c.outcomes[0].digest, d.outcomes[0].digest);
}

}  // namespace
}  // namespace gridsim::harness
