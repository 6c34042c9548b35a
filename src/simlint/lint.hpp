// Happens-before communication-race analyzer (simlint).
//
// Consumes the comm-event log one instrumented execution records
// (mpi/comm_log.hpp), attaches a vector clock to every event, and derives
// the happens-before relation: per-rank program order, plus one cross-rank
// edge per receive match (send post -> match), per rendez-vous CTS
// (receiver CTS -> sender resumption) and per rendez-vous payload (sender
// post-CTS -> receiver resumption). Over that relation it runs three rules
// in the style of ISP's dynamic verification and MUST's communication-race
// lints (docs/race-detection.md):
//
//  R1 wildcard-receive race (warning): a kAnySource receive had a
//     candidate send, from another source, that is HB-concurrent with the
//     send it actually matched — WAN jitter could have swapped the winner.
//     Reported with both racing send sites.
//  R2 causally-dependent send (note): a wildcard-matched (or
//     wildcard-candidate) send whose issuance is HB-after some wildcard
//     match — exactly the shape for which the model-checker's
//     quiescence-computed candidate sets can be incomplete, so simmc
//     downgrades "verified" to "verified-incomplete" when R2 fires.
//  R3 resource leak / tag conflict (error): unmatched sends still queued
//     at finalize, posted receives or probes that never completed, and
//     wildcard-tag receives that captured collective-phase traffic.
//
// The race model is causal: two sends to the same receiver race iff
// neither happens-before the other. HB-ordered sends are reported as
// ordered even if the network could physically deliver them out of order;
// exploring those delivery orders is the model-checker's job (the HB
// persistent sets in src/simmc prune exactly the non-racing branches).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mpi/comm_log.hpp"

namespace gridsim::simlint {

/// One rule hit. `site_a` is the primary site (R1: the matched send);
/// `site_b` the secondary one (R1: the racing candidate), empty if none.
struct Finding {
  std::string rule;      ///< "R1-wildcard-race" | "R2-causal-send" |
                         ///< "R3-unmatched-send" | "R3-unmatched-recv" |
                         ///< "R3-tag-conflict"
  std::string severity;  ///< "error" | "warning" | "note"
  std::string site_a;
  std::string site_b;
  std::string message;   ///< one human-readable line naming both sites

  friend bool operator==(const Finding&, const Finding&) = default;
};

/// "rank R send#K -> D (tag T)" — the stable name of a send site.
std::string send_site_name(int rank, int site, int dst, int tag);
/// "rank R recv#K (src=S|*, tag=T|*)" — the stable name of a receive site.
std::string recv_site_name(int rank, int site, int want_src, int want_tag);

/// Happens-before analysis of one Job's comm trace: vector clocks plus the
/// R1-R3 rule results. Counters are exact; `findings` is capped at the
/// `max_findings` passed to `analyze_job` (0 = counters only).
struct JobLint {
  int nranks = 0;
  std::uint64_t events = 0;    ///< comm events analyzed
  std::uint64_t hb_edges = 0;  ///< cross-rank HB edges (match + CTS + data)
  int races = 0;               ///< R1: distinct racing send pairs
  int causal_sends = 0;        ///< R2: sends HB-after a wildcard match
  int leaks = 0;               ///< R3: leaks + tag conflicts
  /// Analysis incomplete: event recording hit its cap, or the clock table
  /// was capped while wildcard receives are present (R1/R2 coverage lost).
  /// R3 is clock-free and always scans the full recorded trace, so a
  /// clock-capped wildcard-free job stays fully analyzed.
  bool truncated = false;
  std::vector<Finding> findings;

  /// HB order of two send sites: 1 if a happens-before b, -1 if b
  /// happens-before a, 0 if concurrent, -2 if either site is unknown
  /// (not in this job's trace, or the log was truncated).
  int send_order(int rank_a, int site_a, int rank_b, int site_b) const;

  // Retained clock state backing send_order() (internal layout: `vc` is
  // event-major, nranks-wide; `send_keys`/`send_events` map sorted
  // (rank<<32|site) keys to kSendPost event indices).
  std::vector<std::uint32_t> vc;
  std::vector<std::uint64_t> send_keys;
  std::vector<std::uint32_t> send_events;
};

JobLint analyze_job(const mpi::JobCommTrace& trace,
                    std::size_t max_findings);

/// Aggregate over every Job a scenario ran (counters summed, findings
/// concatenated under one shared cap, per-job clock state retained for
/// send_order queries).
struct LintSummary {
  std::uint64_t events = 0;
  std::uint64_t hb_edges = 0;
  int races = 0;
  int causal_sends = 0;
  int leaks = 0;
  bool truncated = false;
  std::vector<Finding> findings;
  std::vector<JobLint> jobs;

  /// True only if exactly one job's trace proves send a happens-before
  /// send b. Site ids restart at 0 per Job, so a pair resolved by more
  /// than one job is ambiguous; it reports false, like unknown sites —
  /// callers treating "not ordered" as "racing" stay conservative (the
  /// model-checker keeps the branch).
  bool send_happens_before(int rank_a, int site_a, int rank_b,
                           int site_b) const;
};

LintSummary analyze(const mpi::CommLog& log, std::size_t max_findings);

/// Scenario verdict (a campaign row's `lint_status`): "leaks" if R3 fired,
/// "races" if R1 fired unexpectedly, "truncated" if a capped analysis
/// would otherwise pass (dropped tail events could hide finalize leaks),
/// else "expected-races" (by `races_expected`, see ScenarioSpec) or
/// "clean".
/// R2 notes never fail a scenario — they refine the model-checker's
/// claim, not the scenario's.
std::string lint_status(const LintSummary& lint, bool races_expected);
/// Whether a status string counts as passing ("clean" | "expected-races").
bool lint_status_ok(const std::string& status);

}  // namespace gridsim::simlint
