// Campaign runner: executes registered scenarios concurrently.
//
// A campaign selects scenarios from a ScenarioRegistry by glob and runs
// them on a pool of worker threads — one Simulation (or simulation
// sequence) per worker, no shared mutable state — then aggregates results
// in registration order, so the report is independent of the thread
// schedule. Each scenario is trace-digested while it runs (streaming
// FNV-1a over every enabled trace event, O(1) memory): `--jobs N` must
// produce byte-identical per-scenario digests to `--jobs 1`, which the
// campaign-smoke CI job and tests/campaign_test.cpp verify with the same
// machinery the `gridsim audit` subcommand uses.
//
// Failure isolation: a scenario that throws (or violates its declared
// metric schema) is reported failed with its error text; the rest of the
// campaign completes normally.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/scenario.hpp"

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
  /// `status == "timeout"`, and the rest of the campaign proceeds.
  double timeout_s = 0;
  /// Record each scenario's comm-event log and run the simlint
  /// happens-before analysis over it, filling ScenarioOutcome::races and
  /// hb_edges (counters only — `gridsim lint` reports the sites). Off, the
  /// engine skips recording entirely.
  bool lint = true;
};

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
