// Campaign runner: executes registered scenarios concurrently.
//
// A campaign selects scenarios from a ScenarioRegistry by glob and runs
// them on a pool of worker threads — one Simulation (or simulation
// sequence) per worker, no shared mutable state — then aggregates results
// in registration order, so the report is independent of the thread
// schedule. Each scenario is trace-digested while it runs (streaming
// FNV-1a over every enabled trace event, O(1) memory). This is the
// simulator's one determinism check: `--jobs N` must produce byte-identical
// per-scenario digests to `--jobs 1` (scripts/check_campaign.sh, run by
// CI), and tests/campaign_test.cpp pins the digests of three catalog
// scenarios so that any change to the event schedule fails a test.
//
// Each scenario's one run also yields its happens-before race verdict
// (simlint), so the campaign is the catalog's race and leak gate too.
//
// Failure isolation: a scenario that throws, violates its declared metric
// schema or gets a failing lint verdict is reported failed with its error
// text; the rest of the campaign completes normally.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "simlint/lint.hpp"

namespace gridsim::harness {

struct CampaignOptions {
  std::string filter = "*";  ///< glob over scenario names and groups
  int jobs = 1;              ///< worker threads; <=0 = hardware concurrency
  std::uint64_t seed = 1;    ///< folded into every scenario digest
  /// Trace-digest every simulation the scenarios run. Off, scenarios run
  /// without tracing overhead and `digest`/`trace_events` stay zero (the
  /// campaign subcommand keeps it on).
  bool digests = true;
  /// Per-scenario wall-clock watchdog in seconds; 0 = none. A scenario that
  /// exceeds it is stopped at the next event boundary of whichever
  /// Simulation it is running (TimeoutError), reported with
  /// `status == "timeout"`, and the rest of the campaign proceeds. A budget
  /// past the steady clock's range (about 292 years) arms none;
  /// run_campaign throws std::invalid_argument for a negative or NaN one.
  double timeout_s = 0;
  /// Record each scenario's comm-event log and run the simlint
  /// happens-before analysis over it (docs/race-detection.md), filling the
  /// outcome's lint verdict, counters and first findings. A verdict other
  /// than "clean" or "expected-races" fails the scenario. Off, the engine
  /// skips recording entirely.
  bool lint = true;
};

/// Findings kept per scenario; the lint counters stay exact.
inline constexpr std::size_t kLintFindingsCap = 16;

/// One scenario's execution record.
struct ScenarioOutcome {
  std::string name;
  std::string group;
  bool ok = false;
  /// "ok" | "failed" | "timeout" (the watchdog fired; see
  /// CampaignOptions::timeout_s). `ok == (status == "ok")`.
  std::string status = "failed";
  std::string error;         ///< exception text or schema violation
  ScenarioResult result;
  std::uint64_t digest = 0;       ///< streaming trace digest (see above)
  std::uint64_t trace_events = 0; ///< trace events folded into the digest
  std::uint64_t simulations = 0;  ///< Simulations the scenario ran
  std::int64_t final_time = 0;    ///< max virtual end time across them (ns)
  double wall_s = 0;
  int races = 0;                  ///< simlint R1 racing send pairs
  std::uint64_t hb_edges = 0;     ///< cross-rank happens-before edges
  /// simlint::lint_status of the run: "clean" | "expected-races" (both
  /// pass) | "races" | "leaks" | "truncated" (these fail the scenario,
  /// with the verdict and first finding in `error`). Empty when no
  /// analysis ran: lint off, or the scenario had already failed.
  std::string lint_status;
  int causal_sends = 0;           ///< simlint R2 notes (never fail a run)
  int leaks = 0;                  ///< simlint R3 leaks and tag conflicts
  std::vector<simlint::Finding> findings;  ///< first kLintFindingsCap
};

struct CampaignReport {
  std::vector<ScenarioOutcome> outcomes;  ///< registration order
  std::string filter;
  int jobs = 1;
  std::uint64_t seed = 1;
  double wall_s = 0;
  std::size_t failures() const;
};

/// Optional progress callback, invoked from worker threads as scenarios
/// finish (serialized internally; do not assume completion order).
using CampaignProgress = std::function<void(const ScenarioOutcome&)>;

/// Runs every scenario matching `options.filter`.
CampaignReport run_campaign(const ScenarioRegistry& registry,
                            const CampaignOptions& options = {},
                            const CampaignProgress& progress = {});

/// Writes the consolidated campaign report (schema "gridsim-campaign/1",
/// documented in docs/usage.md). One scenario object per line, so shell
/// tooling can diff digests without a JSON parser. Returns false if the
/// file cannot be written.
bool write_campaign_json(const std::string& path,
                         const CampaignReport& report);

/// Renders one group's figure/table text from campaign outcomes using the
/// registry's renderer; falls back to concatenating per-scenario text and
/// notes when the group has none. Failed scenarios are reported inline.
std::string render_group(const ScenarioRegistry& registry,
                         const std::string& group,
                         const CampaignReport& report);

}  // namespace gridsim::harness
