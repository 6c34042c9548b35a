// Tests for the happens-before communication-race analyzer
// (simlint/lint.hpp): vector-clock construction over synthetic comm
// traces, the R1/R2/R3 rule engine over real engine runs, the catalog
// fixture verdicts (the racy wildcard workload and its race-free twin),
// and the campaign's lint gate: the verdict and findings every
// CAMPAIGN.json row carries, and the failure of an unexpected race or a
// leak.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/scenario.hpp"
#include "mpi/comm_log.hpp"
#include "mpi/message.hpp"
#include "mpi/mpi.hpp"
#include "profiles/profiles.hpp"
#include "scenarios/catalog.hpp"
#include "simcore/check.hpp"
#include "simcore/simulation.hpp"
#include "simlint/lint.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::simlint {
namespace {

using mpi::CommEvent;
using mpi::CommEventKind;

/// Runs a registered scenario once with comm-event recording, as the
/// campaign does, and returns the analysis.
LintSummary lint_scenario(const harness::ScenarioSpec& spec) {
  mpi::CommLog log;
  {
    const mpi::ScopedCommLog scope(&log);
    harness::ScenarioContext ctx;
    (void)spec.run(ctx);
  }
  return analyze(log, 64);
}

// ---------------------------------------------------------------------------
// Vector clocks over synthetic traces
// ---------------------------------------------------------------------------

TEST(LintClocks, MatchEdgeOrdersSendsAcrossRanks) {
  mpi::JobCommTrace trace;
  trace.nranks = 2;
  using K = CommEventKind;
  // rank 0 sends (site 0); rank 1 matches it, then sends back (site 0).
  trace.events.push_back(
      {K::kSendPost, /*rank=*/0, /*peer=*/1, /*tag=*/1, 0, 0, /*site=*/0});
  trace.events.push_back({K::kRecvPost, 1, -1, 0, /*want_src=*/0,
                          /*want_tag=*/1, /*site=*/0});
  trace.events.push_back({K::kRecvMatch, 1, /*peer=*/0, 1, 0, 1, /*site=*/0,
                          /*peer_site=*/0});
  trace.events.push_back({K::kSendPost, 1, /*peer=*/0, /*tag=*/2, 0, 0,
                          /*site=*/0});

  const JobLint lint = analyze_job(trace, 64);
  EXPECT_EQ(lint.hb_edges, 1u);
  // rank 0's send happens-before rank 1's reply...
  EXPECT_EQ(lint.send_order(0, 0, 1, 0), 1);
  // ...and symmetrically the reply is after it.
  EXPECT_EQ(lint.send_order(1, 0, 0, 0), -1);
  // An unknown site is reported as such, not guessed.
  EXPECT_EQ(lint.send_order(0, 5, 1, 0), -2);
}

TEST(LintClocks, UnrelatedSendsAreConcurrent) {
  mpi::JobCommTrace trace;
  trace.nranks = 3;
  using K = CommEventKind;
  trace.events.push_back({K::kSendPost, 1, 0, 1, 0, 0, /*site=*/0});
  trace.events.push_back({K::kSendPost, 2, 0, 1, 0, 0, /*site=*/0});
  const JobLint lint = analyze_job(trace, 64);
  EXPECT_EQ(lint.hb_edges, 0u);
  EXPECT_EQ(lint.send_order(1, 0, 2, 0), 0);
}

TEST(LintClocks, RendezvousCtsAndDataEdgesAreJoined) {
  mpi::JobCommTrace trace;
  trace.nranks = 2;
  using K = CommEventKind;
  const std::uint64_t seq = 7;
  // Full rendez-vous: RTS arrives (match), receiver grants CTS, sender
  // resumes, payload lands. Three cross-rank edges.
  trace.events.push_back({K::kSendPost, 0, 1, 3, 0, 0, 0, -1, 1e6});
  trace.events.push_back({K::kRecvPost, 1, -1, 0, 0, 3, 0});
  trace.events.push_back({K::kRecvMatch, 1, 0, 3, 0, 3, 0, 0, 1e6, seq});
  trace.events.push_back({K::kRecvCts, 1, 0, 3, 0, 0, 0, -1, 0, seq});
  trace.events.push_back({K::kSendCts, 0, 1, 3, 0, 0, 0, -1, 1e6, seq});
  trace.events.push_back({K::kRecvData, 1, 0, 3, 0, 0, 0, 0, 1e6, seq});
  const JobLint lint = analyze_job(trace, 64);
  EXPECT_EQ(lint.hb_edges, 3u);
}

TEST(LintClocks, MultiJobSitePairsStayConservative) {
  // Site ids restart at 0 in every Job, so two jobs can resolve the same
  // (rank, site) keys — here with opposite orders. The summary must not
  // pick one: an ambiguous pair reports "not ordered" (the model-checker
  // keeps the branch).
  mpi::CommLog log;
  using K = CommEventKind;
  mpi::JobCommTrace* a = log.open_job(2);
  a->push({K::kSendPost, 0, 1, 1, 0, 0, /*site=*/0});
  a->push({K::kRecvMatch, 1, /*peer=*/0, 1, 0, 1, /*site=*/0,
           /*peer_site=*/0});
  a->push({K::kSendPost, 1, 0, 2, 0, 0, /*site=*/0});
  a->push({K::kSendPost, 1, 0, 3, 0, 0, /*site=*/1});
  mpi::JobCommTrace* b = log.open_job(2);
  b->push({K::kSendPost, 1, 0, 1, 0, 0, /*site=*/0});
  b->push({K::kRecvMatch, 0, /*peer=*/1, 1, 0, 1, /*site=*/0,
           /*peer_site=*/0});
  b->push({K::kSendPost, 0, 1, 2, 0, 0, /*site=*/0});

  const LintSummary lint = analyze(log, 64);
  ASSERT_EQ(lint.jobs.size(), 2u);
  // Each job alone proves an order — and they disagree.
  EXPECT_EQ(lint.jobs[0].send_order(0, 0, 1, 0), 1);
  EXPECT_EQ(lint.jobs[1].send_order(0, 0, 1, 0), -1);
  // The ambiguous pair stays unordered in both directions...
  EXPECT_FALSE(lint.send_happens_before(0, 0, 1, 0));
  EXPECT_FALSE(lint.send_happens_before(1, 0, 0, 0));
  // ...while a pair only the first job knows still answers.
  EXPECT_TRUE(lint.send_happens_before(0, 0, 1, 1));
}

// ---------------------------------------------------------------------------
// Rules over real engine runs
// ---------------------------------------------------------------------------

TEST(LintRules, UnmatchedSendAtFinalizeIsALeak) {
  mpi::CommLog log;
  {
    const mpi::ScopedCommLog scope(&log);
    Simulation sim;
    topo::Grid grid(sim, topo::GridSpec::rennes_nancy(2));
    {
      mpi::Job job(grid, mpi::block_placement(grid, 2), profiles::mpich2(),
                   tcp::KernelTunables::grid_tuned());
      job.launch([](mpi::Rank& r) -> Task<void> {
        if (r.rank() == 1) co_await r.send(0, 512, /*tag=*/9);
        co_return;  // rank 0 never posts the receive
      });
      sim.run();
    }
  }
  const LintSummary lint = analyze(log, 64);
  EXPECT_EQ(lint.leaks, 1);
  EXPECT_EQ(lint_status(lint, false), "leaks");
  EXPECT_FALSE(lint_status_ok("leaks"));
  ASSERT_FALSE(lint.findings.empty());
  EXPECT_EQ(lint.findings.front().rule, "R3-unmatched-send");
  EXPECT_NE(lint.findings.front().message.find("rank 1 send#0"),
            std::string::npos)
      << lint.findings.front().message;
}

TEST(LintRules, UnmatchedPostedReceiveIsALeak) {
  mpi::CommLog log;
  {
    const mpi::ScopedCommLog scope(&log);
    // The starved receive deadlocks the simulation; the abandoned
    // coroutine frames are the scenario's point.
    [[maybe_unused]] ScopedLeakExemption leak_exemption;
    Simulation sim;
    topo::Grid grid(sim, topo::GridSpec::rennes_nancy(2));
    bool deadlocked = false;
    try {
      mpi::Job job(grid, mpi::block_placement(grid, 2), profiles::mpich2(),
                   tcp::KernelTunables::grid_tuned());
      job.launch([](mpi::Rank& r) -> Task<void> {
        if (r.rank() == 0) (void)co_await r.recv(1, /*tag=*/5);
        co_return;  // rank 1 never sends
      });
      sim.run();
    } catch (const DeadlockError&) {
      deadlocked = true;
    }
    ASSERT_TRUE(deadlocked);
  }
  const LintSummary lint = analyze(log, 64);
  EXPECT_GE(lint.leaks, 1);
  EXPECT_EQ(lint_status(lint, false), "leaks");
  bool found = false;
  for (const Finding& f : lint.findings)
    if (f.rule == "R3-unmatched-recv") found = true;
  EXPECT_TRUE(found);
}

TEST(LintRules, WildcardTagCapturingCollectiveTrafficIsAConflict) {
  mpi::JobCommTrace trace;
  trace.nranks = 2;
  using K = CommEventKind;
  const int coll_tag = mpi::kCollectiveTagBase;
  trace.events.push_back(
      {K::kSendPost, 0, 1, coll_tag, 0, 0, /*site=*/0});
  trace.events.push_back({K::kRecvPost, 1, -1, 0, mpi::kAnySource,
                          mpi::kAnyTag, /*site=*/0});
  trace.events.push_back({K::kRecvMatch, 1, 0, coll_tag, mpi::kAnySource,
                          mpi::kAnyTag, /*site=*/0, /*peer_site=*/0});
  const JobLint lint = analyze_job(trace, 64);
  EXPECT_EQ(lint.leaks, 1);
  ASSERT_FALSE(lint.findings.empty());
  EXPECT_EQ(lint.findings.front().rule, "R3-tag-conflict");
}

TEST(LintRules, TruncatedAnalysisCannotClaimClean) {
  // Tail events are dropped first when a trace hits its cap, and
  // finalize-time R3 leaks live at the tail — a capped analysis that
  // found nothing must not pass the gate.
  LintSummary lint;
  lint.truncated = true;
  EXPECT_EQ(lint_status(lint, false), "truncated");
  EXPECT_EQ(lint_status(lint, true), "truncated");
  EXPECT_FALSE(lint_status_ok("truncated"));
  // Findings that did survive keep their more specific verdicts.
  lint.races = 1;
  EXPECT_EQ(lint_status(lint, false), "races");
  lint.leaks = 1;
  EXPECT_EQ(lint_status(lint, false), "leaks");
  // Expected races on a truncated trace still cannot pass.
  lint.leaks = 0;
  EXPECT_EQ(lint_status(lint, true), "truncated");
}

TEST(LintRules, CapsOnlyTruncateAnalysisWhereWildcardsAreInvolved) {
  using K = CommEventKind;
  // A capped recording with no wildcard receives anywhere stays fully
  // analyzed: R3 is clock-free and finalize leftovers survive the cap,
  // and R1/R2 have nothing to trigger on — the verdict may claim clean.
  {
    mpi::CommLog log;
    mpi::JobCommTrace* job = log.open_job(2);
    job->truncated = true;
    job->push({K::kSendPost, 0, 1, 1, 0, 0, /*site=*/0});
    EXPECT_FALSE(analyze(log, 64).truncated);
  }
  // A recorded wildcard receive on a capped trace: racing candidate
  // sends may have been dropped, so the analysis is incomplete.
  {
    mpi::CommLog log;
    mpi::JobCommTrace* job = log.open_job(2);
    job->truncated = true;
    job->push({K::kRecvPost, 0, -1, 0, mpi::kAnySource, 1, /*site=*/0});
    EXPECT_TRUE(analyze(log, 64).truncated);
  }
  // A wildcard receive among the dropped events is flagged at recording
  // time and makes the analysis incomplete even though no recorded
  // event shows it.
  {
    mpi::CommLog log;
    log.open_job(2)->dropped_wildcard = true;
    EXPECT_TRUE(analyze(log, 64).truncated);
  }
  // Finalize leftovers bypass the recording cap, so R3 still fires on a
  // saturated trace.
  {
    mpi::JobCommTrace trace;
    trace.nranks = 2;
    trace.max_events = 1;
    trace.push({K::kSendPost, 0, 1, 1, 0, 0, /*site=*/0});
    trace.push({K::kSendPost, 0, 1, 1, 0, 0, /*site=*/1});  // dropped
    trace.push({K::kUnmatchedSend, /*rank=*/1, /*peer=*/0, 1, 0, 0, -1,
                /*peer_site=*/0});
    EXPECT_TRUE(trace.truncated);
    ASSERT_EQ(trace.events.size(), 2u);
    const JobLint lint = analyze_job(trace, 64);
    EXPECT_EQ(lint.leaks, 1);
    EXPECT_FALSE(lint.truncated);  // no wildcards: analysis is complete
    ASSERT_FALSE(lint.findings.empty());
    EXPECT_EQ(lint.findings.front().rule, "R3-unmatched-send");
  }
}

// ---------------------------------------------------------------------------
// Catalog fixtures: the verdict boundary from both sides
// ---------------------------------------------------------------------------

TEST(LintCatalog, WildcardRaceFixtureFiresR1NamingBothSites) {
  const auto* spec = scenarios::paper_registry().find("lint/wildcard-race");
  ASSERT_NE(spec, nullptr);
  EXPECT_TRUE(spec->races_expected);
  const LintSummary lint = lint_scenario(*spec);
  EXPECT_EQ(lint.races, 1);
  EXPECT_EQ(lint.leaks, 0);
  EXPECT_EQ(lint_status(lint, spec->races_expected), "expected-races");
  EXPECT_TRUE(lint_status_ok("expected-races"));
  // Without the declaration the same analysis fails the scenario.
  EXPECT_EQ(lint_status(lint, false), "races");
  ASSERT_FALSE(lint.findings.empty());
  const Finding& f = lint.findings.front();
  EXPECT_EQ(f.rule, "R1-wildcard-race");
  // Both racing send sites are named.
  EXPECT_NE(f.message.find("rank 1 send#0"), std::string::npos)
      << f.message;
  EXPECT_NE(f.message.find("rank 2 send#0"), std::string::npos)
      << f.message;
}

TEST(LintCatalog, ScriptedOrderTwinIsClean) {
  const auto* spec = scenarios::paper_registry().find("lint/scripted-order");
  ASSERT_NE(spec, nullptr);
  EXPECT_FALSE(spec->races_expected);
  const LintSummary lint = lint_scenario(*spec);
  EXPECT_EQ(lint.races, 0);
  EXPECT_EQ(lint.causal_sends, 0);
  EXPECT_EQ(lint.leaks, 0);
  EXPECT_TRUE(lint.findings.empty());
  EXPECT_EQ(lint_status(lint, false), "clean");
  // The token adds a third cross-rank edge on top of the two matches.
  EXPECT_GE(lint.hb_edges, 3u);
}

// ---------------------------------------------------------------------------
// The campaign's lint gate
// ---------------------------------------------------------------------------

/// The catalog's lint/wildcard-race fixture, with its races_expected flag
/// set to `declared`.
harness::ScenarioSpec wildcard_race(bool declared) {
  const auto* spec = scenarios::paper_registry().find("lint/wildcard-race");
  EXPECT_NE(spec, nullptr);
  harness::ScenarioSpec copy = *spec;
  copy.races_expected = declared;
  return copy;
}

/// Rank 1 sends a message rank 0 never receives: R3 at finalize.
harness::ScenarioSpec unmatched_send() {
  harness::ScenarioSpec spec;
  spec.name = "lint/unmatched-send";
  spec.group = "lint";
  spec.run = [](const harness::ScenarioContext& ctx) {
    Simulation sim;
    if (ctx.hooks.on_start) ctx.hooks.on_start(sim);
    topo::Grid grid(sim, topo::GridSpec::rennes_nancy(2));
    {
      mpi::Job job(grid, mpi::block_placement(grid, 2), profiles::mpich2(),
                   tcp::KernelTunables::grid_tuned());
      job.launch([](mpi::Rank& r) -> Task<void> {
        if (r.rank() == 1) co_await r.send(0, 512, /*tag=*/9);
        co_return;  // rank 0 never posts the receive
      });
      sim.run();
    }
    if (ctx.hooks.on_finish) ctx.hooks.on_finish(sim);
    return harness::ScenarioResult{};
  };
  return spec;
}

harness::CampaignReport run_specs(std::vector<harness::ScenarioSpec> specs,
                                  int jobs = 1) {
  harness::ScenarioRegistry reg;
  for (harness::ScenarioSpec& spec : specs) reg.add(std::move(spec));
  harness::CampaignOptions options;
  options.jobs = jobs;
  return harness::run_campaign(reg, options);
}

TEST(CampaignLint, UndeclaredRaceFailsTheRow) {
  const auto report = run_specs({wildcard_race(false)});
  ASSERT_EQ(report.outcomes.size(), 1u);
  const harness::ScenarioOutcome& o = report.outcomes[0];
  EXPECT_EQ(report.failures(), 1u);  // `gridsim campaign` then exits 1
  EXPECT_FALSE(o.ok);
  EXPECT_EQ(o.status, "failed");
  EXPECT_EQ(o.lint_status, "races");
  EXPECT_EQ(o.races, 1);
  ASSERT_FALSE(o.findings.empty());
  const Finding& f = o.findings.front();
  EXPECT_EQ(f.rule, "R1-wildcard-race");
  EXPECT_NE(f.message.find("rank 1 send#0"), std::string::npos) << f.message;
  EXPECT_NE(f.message.find("rank 2 send#0"), std::string::npos) << f.message;
  // The error names the verdict and the first finding.
  EXPECT_NE(o.error.find("races"), std::string::npos) << o.error;
  EXPECT_NE(o.error.find(f.message), std::string::npos) << o.error;
  // The run itself completed: its digest is still reported.
  EXPECT_NE(o.digest, 0u);
}

TEST(CampaignLint, DeclaredRaceIsExpected) {
  const auto report = run_specs({wildcard_race(true)});
  ASSERT_EQ(report.outcomes.size(), 1u);
  const harness::ScenarioOutcome& o = report.outcomes[0];
  EXPECT_EQ(report.failures(), 0u);
  EXPECT_TRUE(o.ok) << o.error;
  EXPECT_EQ(o.status, "ok");
  EXPECT_EQ(o.lint_status, "expected-races");
  ASSERT_FALSE(o.findings.empty());
  EXPECT_EQ(o.findings.front().rule, "R1-wildcard-race");
}

TEST(CampaignLint, UnmatchedSendFailsWithLeaks) {
  const auto report = run_specs({unmatched_send()});
  ASSERT_EQ(report.outcomes.size(), 1u);
  const harness::ScenarioOutcome& o = report.outcomes[0];
  EXPECT_EQ(report.failures(), 1u);  // `gridsim campaign` then exits 1
  EXPECT_FALSE(o.ok);
  EXPECT_EQ(o.status, "failed");
  EXPECT_EQ(o.lint_status, "leaks");
  EXPECT_EQ(o.leaks, 1);
  ASSERT_FALSE(o.findings.empty());
  EXPECT_EQ(o.findings.front().rule, "R3-unmatched-send");
  EXPECT_NE(o.error.find("leaks"), std::string::npos) << o.error;
}

TEST(CampaignLint, VerdictIsIndependentOfJobs) {
  const auto specs = [] {
    std::vector<harness::ScenarioSpec> out = {
        wildcard_race(false), wildcard_race(true), unmatched_send()};
    out[1].name = "lint/wildcard-race-declared";
    for (const auto& spec : scenarios::paper_registry().scenarios())
      if (spec.group == "lint" || spec.name.rfind("mc/pingpong-wild", 0) == 0)
        if (spec.name != "lint/wildcard-race") out.push_back(spec);
    return out;
  };
  const auto serial = run_specs(specs(), 1);
  const auto parallel = run_specs(specs(), 4);
  ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
  ASSERT_GE(serial.outcomes.size(), 6u);
  EXPECT_EQ(serial.failures(), 2u);
  EXPECT_EQ(parallel.failures(), 2u);
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    const harness::ScenarioOutcome& a = serial.outcomes[i];
    const harness::ScenarioOutcome& b = parallel.outcomes[i];
    SCOPED_TRACE(a.name);
    EXPECT_FALSE(a.lint_status.empty());
    EXPECT_EQ(a.lint_status, b.lint_status);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.races, b.races);
    EXPECT_EQ(a.hb_edges, b.hb_edges);
    EXPECT_EQ(a.causal_sends, b.causal_sends);
    EXPECT_EQ(a.leaks, b.leaks);
    EXPECT_EQ(a.findings, b.findings);
    EXPECT_LE(a.findings.size(), harness::kLintFindingsCap);
  }
}

TEST(LintReport, WritesTheLintJsonSchema) {
  // The lint fields of a CAMPAIGN.json row: a clean row, a failing one
  // with its finding, and a row the analysis never reached.
  harness::ScenarioSpec throwing;
  throwing.name = "lint/throws";
  throwing.group = "lint";
  throwing.run =
      [](const harness::ScenarioContext&) -> harness::ScenarioResult {
    throw std::runtime_error("deliberate failure");
  };
  const auto* twin = scenarios::paper_registry().find("lint/scripted-order");
  ASSERT_NE(twin, nullptr);
  const auto report =
      run_specs({*twin, wildcard_race(false), std::move(throwing)});
  const std::string path = ::testing::TempDir() + "lint_report_test.json";
  ASSERT_TRUE(harness::write_campaign_json(path, report));
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::remove(path.c_str());
  const auto row = [&lines](const std::string& name) {
    for (const std::string& line : lines)
      if (line.find("{\"name\": \"" + name + "\"") != std::string::npos)
        return line;
    ADD_FAILURE() << "no row for " << name;
    return std::string();
  };
  const auto has = [](const std::string& line, const std::string& field) {
    return line.find(field) != std::string::npos;
  };
  ASSERT_EQ(lines.size(), 14u);  // 9 header lines, 3 rows, 2 closing
  EXPECT_TRUE(has(lines[1], "\"schema\": \"gridsim-campaign/1\""));
  EXPECT_TRUE(has(lines[7], "\"failures\": 2"));

  const std::string clean = row("lint/scripted-order");
  EXPECT_TRUE(has(clean, "\"ok\": true")) << clean;
  EXPECT_TRUE(has(clean, "\"races\": 0, \"hb_edges\": 3, "
                         "\"lint_status\": \"clean\", "
                         "\"causal_sends\": 0, \"leaks\": 0, "
                         "\"findings\": []"))
      << clean;

  const std::string racy = row("lint/wildcard-race");
  EXPECT_TRUE(has(racy, "\"ok\": false")) << racy;
  EXPECT_TRUE(has(racy, "\"status\": \"failed\"")) << racy;
  EXPECT_TRUE(has(racy, "\"lint_status\": \"races\", "
                        "\"causal_sends\": 0, \"leaks\": 0, "
                        "\"findings\": [{\"rule\": \"R1-wildcard-race\", "
                        "\"severity\": \"warning\", "
                        "\"site_a\": \"rank 1 send#0 -> 0 (tag 1)\", "
                        "\"site_b\": \"rank 2 send#0 -> 0 (tag 1)\", "
                        "\"message\": \""))
      << racy;
  EXPECT_TRUE(has(racy, "\"error\": \"lint verdict 'races': "
                        "[R1-wildcard-race] "))
      << racy;

  const std::string thrown = row("lint/throws");
  EXPECT_TRUE(has(thrown, "\"lint_status\": \"\", \"causal_sends\": 0, "
                          "\"leaks\": 0, \"findings\": []"))
      << thrown;
  EXPECT_TRUE(has(thrown, "\"error\": \"deliberate failure\"")) << thrown;
}

}  // namespace
}  // namespace gridsim::simlint
