#include "simmc/mc.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "harness/determinism.hpp"
#include "simcore/check.hpp"
#include "simcore/json.hpp"
#include "simcore/simulation.hpp"

namespace gridsim::simmc {

namespace {

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

void fold_string(std::uint64_t& h, const std::string& s) {
  harness::fold_digest(h, s.size());
  for (const char c : s)
    harness::fold_digest(h, static_cast<unsigned char>(c));
}

/// Order-independent hash of an execution's full choice assignment
/// (receive site -> matched source). Two executions with equal assignments
/// are identical continuations of a deterministic engine, so the second is
/// redundant — this is the checker's sleep-set-style reduction.
std::uint64_t assignment_hash(const std::vector<DecisionRecord>& trace) {
  std::vector<std::array<std::uint64_t, 4>> keys;
  keys.reserve(trace.size());
  for (const DecisionRecord& d : trace) {
    const mpi::MatchCandidate& c = d.candidates[d.chosen];
    keys.push_back({static_cast<std::uint64_t>(d.rank),
                    static_cast<std::uint64_t>(d.recv_seq),
                    static_cast<std::uint64_t>(c.src_rank), c.order});
  }
  std::sort(keys.begin(), keys.end());
  std::uint64_t h = kFnvBasis;
  for (const auto& k : keys)
    for (const std::uint64_t v : k) harness::fold_digest(h, v);
  return h;
}

std::uint64_t prefix_hash(const std::vector<std::size_t>& prefix) {
  std::uint64_t h = kFnvBasis ^ 0x9E3779B97F4A7C15ULL;
  harness::fold_digest(h, prefix.size());
  for (const std::size_t c : prefix) harness::fold_digest(h, c);
  return h;
}

std::vector<std::size_t> choices_of(
    const std::vector<DecisionRecord>& trace) {
  std::vector<std::size_t> out;
  out.reserve(trace.size());
  for (const DecisionRecord& d : trace) out.push_back(d.chosen);
  return out;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Greedy witness minimization: reset each forced (nonzero) choice to the
/// arrival-order default, left to right, keeping resets that preserve the
/// deadlock; then drop the trailing defaults (an absent script entry is 0).
Witness minimize_witness(const harness::ScenarioSpec& spec,
                         const ExecutionRecord& first,
                         const McOptions& options, int* executions) {
  std::vector<std::size_t> best = choices_of(first.trace);
  std::vector<std::string> blocked = first.blocked;
  while (!best.empty() && best.back() == 0) best.pop_back();
  int budget = options.minimize_budget;
  for (std::size_t i = 0; i < best.size() && budget > 0; ++i) {
    if (best[i] == 0) continue;
    std::vector<std::size_t> trial = best;
    trial[i] = 0;
    const ExecutionRecord rec = run_scripted(spec, trial, options.seed);
    ++*executions;
    --budget;
    if (rec.deadlocked) {
      best = std::move(trial);
      blocked = rec.blocked;
    }
  }
  while (!best.empty() && best.back() == 0) best.pop_back();
  Witness witness;
  witness.scenario = spec.name;
  witness.seed = options.seed;
  witness.choices = std::move(best);
  witness.blocked = std::move(blocked);
  return witness;
}

}  // namespace

std::size_t ScriptedArbiter::choose(const mpi::MatchDecision& decision) {
  GRIDSIM_CHECK(!decision.candidates.empty(),
                "ScriptedArbiter::choose with no candidates");
  const std::size_t index = trace_.size();
  std::size_t pick = index < script_.size() ? script_[index] : 0;
  if (pick >= decision.candidates.size()) pick = 0;
  DecisionRecord rec;
  rec.rank = decision.dst_rank;
  rec.recv_seq = decision.recv_seq;
  rec.want_tag = decision.want_tag;
  rec.candidates = decision.candidates;
  rec.chosen = pick;
  trace_.push_back(std::move(rec));
  return pick;
}

std::uint64_t result_digest(const harness::ScenarioResult& result) {
  std::vector<std::pair<std::string, double>> metrics;
  for (const harness::Metric& m : result.metrics)
    metrics.emplace_back(m.name, m.value);
  std::sort(metrics.begin(), metrics.end());
  std::uint64_t h = kFnvBasis;
  harness::fold_digest(h, metrics.size());
  for (const auto& [name, value] : metrics) {
    fold_string(h, name);
    // Fixed-point quantization: digests compare results, not the last ulp
    // of a double reduction.
    harness::fold_digest(
        h, static_cast<std::uint64_t>(std::llround(value * 4096.0)));
  }
  return h;
}

ExecutionRecord run_scripted(const harness::ScenarioSpec& spec,
                             const std::vector<std::size_t>& script,
                             std::uint64_t seed) {
  ExecutionRecord rec;
  ScriptedArbiter arbiter(script);
  mpi::ScopedArbiter ambient(&arbiter);
  // Record the comm-event log of this execution; its happens-before
  // analysis drives the persistent-set reduction and the R2 completeness
  // check in explore(). Deadlock unwinding still runs Job destructors, so
  // unmatched operations are in the log even for witness runs.
  mpi::CommLog comm_log;
  mpi::ScopedCommLog log_scope(&comm_log);
  harness::ScenarioContext ctx;
  ctx.seed = seed;
  // A deadlocking execution abandons its suspended coroutine frames (they
  // are only destroyed by the event loop draining them); that abandonment
  // is the point of the exploration, so exempt it from leak detection.
  [[maybe_unused]] ScopedLeakExemption leak_exemption;
  try {
    const harness::ScenarioResult result = spec.run(ctx);
    rec.digest = result_digest(result);
  } catch (const DeadlockError& e) {
    rec.deadlocked = true;
    rec.deadlock_report = e.what();
    rec.blocked = e.blocked();
  } catch (const std::exception& e) {
    rec.failed = true;
    rec.error = e.what();
  }
  rec.trace = arbiter.trace();
  rec.lint = simlint::analyze(comm_log, /*max_findings=*/0);
  return rec;
}

McReport explore(const harness::ScenarioSpec& spec,
                 const McOptions& options) {
  McReport report;
  report.scenario = spec.name;

  // Depth-first over forced-choice prefixes. The stack starts with the
  // empty prefix (= pure arrival-order execution); each execution schedules
  // the unexplored alternatives of every decision at or below its forced
  // depth, deepest last so they are explored first.
  std::vector<std::vector<std::size_t>> stack{{}};
  std::set<std::uint64_t> scheduled{prefix_hash({})};
  std::set<std::uint64_t> visited;
  std::set<std::uint64_t> digests;
  std::set<std::pair<int, int>> race_sites;

  while (!stack.empty() && report.executions < options.max_execs) {
    const std::vector<std::size_t> prefix = std::move(stack.back());
    stack.pop_back();
    const ExecutionRecord rec =
        run_scripted(spec, prefix, options.seed);
    ++report.executions;
    report.deepest_trace = std::max(
        report.deepest_trace, static_cast<int>(rec.trace.size()));
    // R2 (simlint): a send issued causally after a wildcard match means
    // the quiescence-computed candidate sets may have been incomplete in
    // some unexplored interleaving — the report must not claim otherwise.
    report.causal_sends =
        std::max(report.causal_sends, rec.lint.causal_sends);
    report.complete = report.causal_sends == 0;
    for (const DecisionRecord& d : rec.trace) {
      report.max_candidates = std::max(
          report.max_candidates, static_cast<int>(d.candidates.size()));
      if (d.candidates.size() >= 2)
        race_sites.insert({d.rank, d.recv_seq});
    }
    if (rec.failed) {
      report.status = "error";
      report.detail = rec.error;
      return report;
    }
    if (rec.deadlocked) {
      report.status = "deadlock";
      report.witness =
          minimize_witness(spec, rec, options, &report.executions);
      report.race_points = static_cast<int>(race_sites.size());
      report.digests.assign(digests.begin(), digests.end());
      report.detail = "deadlock witness with " +
                      std::to_string(report.witness.choices.size()) +
                      " forced choice(s); " +
                      (rec.blocked.empty() ? std::string("(no blocked info)")
                                           : rec.blocked.front());
      return report;
    }
    if (!visited.insert(assignment_hash(rec.trace)).second) {
      ++report.pruned;
      continue;
    }
    digests.insert(rec.digest);
    for (std::size_t depth = prefix.size(); depth < rec.trace.size();
         ++depth) {
      const DecisionRecord& decision = rec.trace[depth];
      const mpi::MatchCandidate& chosen =
          decision.candidates[decision.chosen];
      for (std::size_t alt = 1; alt < decision.candidates.size(); ++alt) {
        // HB persistent set: if the chosen send happens-before the
        // alternative's send, causal delivery forbids the alternative
        // overtaking it — forcing it replays an explored behaviour, so
        // the DFS only branches on genuinely racing (HB-concurrent)
        // candidates. Unknown order conservatively keeps the branch.
        if (options.hb_sets &&
            rec.lint.send_happens_before(
                chosen.src_rank, chosen.send_site,
                decision.candidates[alt].src_rank,
                decision.candidates[alt].send_site)) {
          ++report.hb_pruned;
          continue;
        }
        std::vector<std::size_t> child;
        child.reserve(depth + 1);
        for (std::size_t j = 0; j < depth; ++j)
          child.push_back(rec.trace[j].chosen);
        child.push_back(alt);
        if (scheduled.insert(prefix_hash(child)).second)
          stack.push_back(std::move(child));
      }
    }
  }

  report.race_points = static_cast<int>(race_sites.size());
  report.digests.assign(digests.begin(), digests.end());
  if (digests.size() <= 1) {
    report.status = "ok";
    report.detail =
        std::to_string(report.executions) + " execution(s), " +
        std::to_string(report.race_points) + " race point(s), digest " +
        (digests.empty() ? std::string("n/a") : hex16(*digests.begin())) +
        " stable" +
        (stack.empty() ? std::string()
                       : " (budget hit with " +
                             std::to_string(stack.size()) +
                             " prefix(es) unexplored)") +
        (report.complete
             ? std::string("; hb-complete")
             : "; verified-incomplete (" +
                   std::to_string(report.causal_sends) +
                   " causally-dependent send(s))");
  } else {
    report.status = "digest-divergence";
    report.detail = std::to_string(digests.size()) +
                    " distinct result digests across " +
                    std::to_string(report.executions) + " execution(s)";
  }
  return report;
}

// ---------------------------------------------------------------------------
// Witness files
// ---------------------------------------------------------------------------

bool Witness::save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "gridsim-mc-witness/1\n");
  std::fprintf(f, "scenario %s\n", scenario.c_str());
  std::fprintf(f, "seed %llu\n", static_cast<unsigned long long>(seed));
  std::fprintf(f, "choices");
  for (const std::size_t c : choices)
    std::fprintf(f, " %zu", c);
  std::fprintf(f, "\n");
  for (const std::string& line : blocked)
    std::fprintf(f, "blocked %s\n", line.c_str());
  std::fprintf(f, "end\n");
  return std::fclose(f) == 0;
}

bool Witness::load(const std::string& path, Witness* out,
                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open '" + path + "'";
    return false;
  }
  std::string line;
  if (!std::getline(in, line) || line != "gridsim-mc-witness/1") {
    if (error) *error = "'" + path + "' is not a gridsim-mc-witness/1 file";
    return false;
  }
  Witness w;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "scenario") {
      fields >> std::ws;
      std::getline(fields, w.scenario);
    } else if (key == "seed") {
      fields >> w.seed;
    } else if (key == "choices") {
      std::size_t c = 0;
      while (fields >> c) w.choices.push_back(c);
    } else if (key == "blocked") {
      fields >> std::ws;
      std::string rest;
      std::getline(fields, rest);
      w.blocked.push_back(rest);
    } else if (!key.empty()) {
      if (error) *error = "unknown witness line: " + line;
      return false;
    }
  }
  if (!saw_end || w.scenario.empty()) {
    if (error) *error = "truncated witness file '" + path + "'";
    return false;
  }
  *out = std::move(w);
  return true;
}

// ---------------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------------

bool write_mc_json(const std::string& path, const std::string& filter,
                   const McOptions& options, int ranks_cap,
                   const std::vector<McReport>& reports) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::size_t failures = 0;
  for (const McReport& r : reports)
    if (!r.ok()) ++failures;
  std::fprintf(f,
               "{\n  \"schema\": \"gridsim-mc/1\",\n"
               "  \"filter\": \"%s\",\n  \"max_execs\": %d,\n"
               "  \"ranks_cap\": %d,\n  \"seed\": %llu,\n"
               "  \"scenarios\": %zu,\n  \"failures\": %zu,\n",
               json_escape(filter).c_str(), options.max_execs, ranks_cap,
               static_cast<unsigned long long>(options.seed),
               reports.size(), failures);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const McReport& r = reports[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"status\": \"%s\", "
                 "\"executions\": %d, \"race_points\": %d, "
                 "\"max_candidates\": %d, \"pruned\": %d, "
                 "\"hb_pruned\": %d, \"causal_sends\": %d, "
                 "\"complete\": %s, "
                 "\"deepest_trace\": %d, \"digests\": [",
                 json_escape(r.scenario).c_str(),
                 json_escape(r.status).c_str(), r.executions,
                 r.race_points, r.max_candidates, r.pruned, r.hb_pruned,
                 r.causal_sends, r.complete ? "true" : "false",
                 r.deepest_trace);
    for (std::size_t d = 0; d < r.digests.size(); ++d)
      std::fprintf(f, "%s\"%s\"", d ? ", " : "",
                   hex16(r.digests[d]).c_str());
    std::fprintf(f, "]");
    if (!r.witness_path.empty())
      std::fprintf(f, ", \"witness\": \"%s\"",
                   json_escape(r.witness_path).c_str());
    std::fprintf(f, ", \"detail\": \"%s\"}%s\n",
                 json_escape(r.detail).c_str(),
                 i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace gridsim::simmc
