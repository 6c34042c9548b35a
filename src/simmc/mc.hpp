// DPOR-lite ordering model-checker over the scenario catalog.
//
// Campaign digests prove "same seed, same answer". This subsystem
// upgrades the guarantee for wildcard-racing workloads to "any legal
// matching order, same answer — and no matching order deadlocks": it
// re-executes a scenario under a scripted MatchArbiter (mpi/match_arbiter.hpp)
// that defers every kAnySource receive to quiescence, records the decision
// trace (which source each wildcard matched, out of which candidates), and
// backtracks depth-first over the unexplored candidates of every decision.
//
// The state space is reduced two ways (hence DPOR-*lite*):
//  * only wildcard matches branch — everything else in the engine is a
//    deterministic function of the choices made so far, so two executions
//    with the same choice assignment are identical and need not be rerun;
//  * a sleep-set-style dedup hashes each execution's (receive site ->
//    matched source) assignment order-independently and prunes executions
//    that reach an already-visited assignment via a different choice
//    prefix.
//
// Known incompleteness, and how it is now checked rather than assumed
// (docs/model-checking.md, docs/race-detection.md): deferral resolves
// wildcards at quiescence in canonical order (lowest rank, oldest posted
// first), so interleavings in which a *later* resolution would have
// enlarged an earlier decision's candidate set are explored with the
// quiescent candidate set instead. Candidate sets are maximal whenever no
// send causally depends on a wildcard match outcome. The simlint
// happens-before analyzer verifies that property per execution (rule R2):
// every explored execution is re-analyzed, and any causally-dependent send
// downgrades the report from "hb-complete" to "verified-incomplete"
// (McReport::complete == false) instead of silently over-claiming. The
// registered mc/* catalog is R2-clean.
//
// The same analyzer powers a third reduction: HB persistent sets
// (McOptions::hb_sets, CLI --no-hb). A branch that forces candidate B in
// place of the chosen candidate A is pruned when A's send happens-before
// B's send — under causal delivery B cannot overtake A, so the branch
// replays an already-explored behaviour. Only genuinely racing
// (HB-concurrent) candidates branch; digests and race points are
// unchanged, with fewer executions.
//
// Per execution the checker asserts:
//  (a) no deadlock — a blocked-forever rank (Simulation::DeadlockError)
//      yields a witness: the forced-choice list, greedily minimized and
//      written to a replayable file (`gridsim replay --witness FILE`);
//  (b) result-digest stability — the scenario's metrics (which mc/*
//      scenarios define as interleaving-invariant reductions: counts, byte
//      totals, commutative checksums) hash to the same value under every
//      explored interleaving.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "mpi/match_arbiter.hpp"
#include "simlint/lint.hpp"

namespace gridsim::simmc {

/// One arbitrated wildcard match as recorded during an execution.
struct DecisionRecord {
  int rank = -1;       ///< receiving rank
  int recv_seq = -1;   ///< per-rank wildcard posting index
  int want_tag = -1;   ///< the receive's tag filter
  std::vector<mpi::MatchCandidate> candidates;  ///< arrival order
  std::size_t chosen = 0;                       ///< index matched
};

/// Arbiter that defers wildcards and replays a choice script: decision i
/// takes candidate script[i] (clamped to the candidate count; decisions
/// past the script's end take candidate 0 = arrival order). Records every
/// decision for the explorer.
class ScriptedArbiter final : public mpi::MatchArbiter {
 public:
  explicit ScriptedArbiter(std::vector<std::size_t> script = {})
      : script_(std::move(script)) {}
  bool defer_wildcards() const override { return true; }
  std::size_t choose(const mpi::MatchDecision& decision) override;
  const std::vector<DecisionRecord>& trace() const { return trace_; }

 private:
  std::vector<std::size_t> script_;
  std::vector<DecisionRecord> trace_;
};

/// Outcome of one scripted execution of a scenario.
struct ExecutionRecord {
  std::vector<DecisionRecord> trace;
  std::uint64_t digest = 0;  ///< result digest (valid when !deadlocked)
  bool deadlocked = false;
  std::string deadlock_report;        ///< DeadlockError::what()
  std::vector<std::string> blocked;   ///< per-operation blocked lines
  bool failed = false;                ///< non-deadlock exception
  std::string error;
  simlint::LintSummary lint;  ///< HB analysis of this execution's comm log
};

/// A replayable deadlock schedule ("gridsim-mc-witness/1" on disk).
struct Witness {
  std::string scenario;
  std::uint64_t seed = 1;
  std::vector<std::size_t> choices;  ///< forced candidate per decision
  std::vector<std::string> blocked;  ///< blocked report of the witness run
  bool save(const std::string& path) const;
  static bool load(const std::string& path, Witness* out,
                   std::string* error);
};

struct McOptions {
  int max_execs = 64;        ///< exploration budget (executions)
  std::uint64_t seed = 1;    ///< ScenarioContext seed for every execution
  int minimize_budget = 32;  ///< extra executions for witness shrinking
  bool hb_sets = true;       ///< HB persistent-set reduction (CLI --no-hb)
};

/// Exploration summary for one scenario ("gridsim-mc/1" JSON element).
struct McReport {
  std::string scenario;
  /// "ok" | "digest-divergence" | "deadlock" | "error" | "skipped".
  std::string status;
  int executions = 0;      ///< scripted executions run (incl. minimization)
  int race_points = 0;     ///< decision sites that ever had >= 2 candidates
  int max_candidates = 0;  ///< widest candidate set seen
  int pruned = 0;          ///< executions elided by assignment dedup
  int hb_pruned = 0;       ///< branches elided by HB persistent sets
  int causal_sends = 0;    ///< max R2 causally-dependent sends (simlint)
  bool complete = true;    ///< no execution tripped R2: candidate sets
                           ///< were provably maximal ("hb-complete")
  int deepest_trace = 0;   ///< longest decision trace
  std::vector<std::uint64_t> digests;  ///< distinct result digests
  Witness witness;             ///< populated when status == "deadlock"
  std::string witness_path;    ///< where the CLI saved it (may be empty)
  std::string detail;          ///< one human-readable line
  bool ok() const { return status == "ok" || status == "skipped"; }
};

/// Interleaving-invariant result digest: FNV-1a over the scenario's metric
/// (name, value) pairs, sorted by name, values fixed-point quantized.
std::uint64_t result_digest(const harness::ScenarioResult& result);

/// Runs one execution of `spec` under a scripted deferring arbiter.
/// Deadlocking executions abandon their suspended coroutine frames on
/// purpose (leak-exempted under AddressSanitizer).
ExecutionRecord run_scripted(const harness::ScenarioSpec& spec,
                             const std::vector<std::size_t>& script,
                             std::uint64_t seed);

/// Explores alternative wildcard matching orders of `spec` depth-first up
/// to `options.max_execs` executions. Stops at the first deadlock with a
/// minimized witness. Throws std::invalid_argument if `options.max_execs`
/// < 1: no execution verifies nothing.
McReport explore(const harness::ScenarioSpec& spec,
                 const McOptions& options);

/// Writes the consolidated "gridsim-mc/1" JSON report (one scenario object
/// per line, shell-diffable like the campaign report).
bool write_mc_json(const std::string& path, const std::string& filter,
                   const McOptions& options, int ranks_cap,
                   const std::vector<McReport>& reports);

}  // namespace gridsim::simmc
