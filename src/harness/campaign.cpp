#include "harness/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "harness/determinism.hpp"
#include "simcore/check.hpp"
#include "simcore/json.hpp"
#include "simcore/simulation.hpp"
#include "simcore/trace.hpp"

namespace gridsim::harness {

namespace {

double now_wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Streaming digest state for one scenario. Lives on the worker's stack for
/// the duration of the scenario, so the hooks' raw pointer captures are
/// safe: every simulation a scenario runs is destroyed inside its run().
struct DigestState {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t sims = 0;
  std::int64_t final_time = 0;
};

/// Per-scenario digest basis: the campaign seed and the scenario name salt
/// the fold, so equal-shaped scenarios still get distinct digests.
std::uint64_t digest_basis(std::uint64_t seed, const std::string& name) {
  std::uint64_t h = 0xCBF29CE484222325ULL ^ seed;
  for (const char c : name) fold_digest(h, static_cast<unsigned char>(c));
  return h;
}

/// Hooks that enable every trace category with storage off and fold each
/// event into `state` as it is recorded, so a scenario is digested in O(1)
/// memory regardless of trace length.
SimHooks digest_hooks(DigestState* state) {
  SimHooks hooks;
  hooks.on_start = [state](Simulation& sim) {
    Tracer& tracer = sim.tracer();
    for (std::uint8_t k = 0;
         k < static_cast<std::uint8_t>(TraceKind::kKindCount); ++k) {
      tracer.enable(static_cast<TraceKind>(k));
    }
    tracer.set_storage(false);
    tracer.set_observer([state](const TraceEvent& e) {
      fold_trace_event(state->digest, e);
      ++state->events;
    });
  };
  hooks.on_finish = [state](Simulation& sim) {
    // Fold the engine's final state so a run that diverges only in event
    // count or end time (identical trace prefix) is still caught.
    fold_digest(state->digest, sim.events_processed());
    fold_digest(state->digest, static_cast<std::uint64_t>(sim.now()));
    state->final_time = std::max(state->final_time, sim.now());
    ++state->sims;
  };
  return hooks;
}

/// The wall-clock deadline `budget_s` seconds from now, or none when it lies
/// beyond what steady_clock can represent: such a budget never expires, and
/// converting it would overflow the clock's 64-bit tick count into a
/// deadline in the past.
std::optional<std::chrono::steady_clock::time_point> deadline_after(
    double budget_s) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  const Clock::duration headroom = Clock::time_point::max() - now;
  const std::chrono::duration<double> budget(budget_s);
  // Compared in floating point, so the tick conversion below stays in range.
  if (!(budget < headroom)) return std::nullopt;
  return now + std::chrono::duration_cast<Clock::duration>(budget);
}

ScenarioOutcome run_one(const ScenarioSpec& spec,
                        const CampaignOptions& options) {
  ScenarioOutcome out;
  out.name = spec.name;
  out.group = spec.group;

  DigestState state;
  state.digest = digest_basis(options.seed, spec.name);

  ScenarioContext ctx;
  ctx.seed = options.seed;
  SimHooks hooks;
  if (options.digests) hooks = digest_hooks(&state);

  // Comm-event recording is passive (it never touches the Tracer or the
  // event order), so digests are identical with lint on or off.
  mpi::CommLog comm_log;
  std::optional<mpi::ScopedCommLog> log_scope;
  if (options.lint) log_scope.emplace(&comm_log);

  // Watchdog: one deadline for the whole scenario, armed on every
  // Simulation it constructs. The deadline is checked at event boundaries,
  // so the engine degrades gracefully — no thread is killed mid-update. A
  // timed-out run abandons its suspended coroutine frames on purpose,
  // hence the leak exemption.
  std::optional<ScopedLeakExemption> leak_exemption;
  if (options.timeout_s > 0) {
    leak_exemption.emplace();
    if (const auto deadline = deadline_after(options.timeout_s)) {
      hooks.on_start = [digest = std::move(hooks.on_start),
                        at = *deadline](Simulation& sim) {
        sim.set_wall_deadline(at);
        if (digest) digest(sim);
      };
    }
  }

  const double t0 = now_wall_s();
  try {
    // Every Simulation the scenario builds, however deep in a runner,
    // reports to `hooks` (simcore/simulation.hpp).
    const ScopedSimHooks observe(&hooks);
    out.result = spec.run(ctx);
    out.ok = true;
    out.status = "ok";
    for (const std::string& want : spec.expected_metrics) {
      if (!out.result.has_metric(want)) {
        out.ok = false;
        out.status = "failed";
        out.error = "result violates scenario schema: missing metric '" +
                    want + "'";
        break;
      }
    }
  } catch (const TimeoutError& e) {
    out.ok = false;
    out.status = "timeout";
    out.error = e.what();
  } catch (const std::exception& e) {
    out.ok = false;
    out.status = "failed";
    out.error = e.what();
  } catch (...) {
    out.ok = false;
    out.status = "failed";
    out.error = "unknown exception";
  }
  out.wall_s = now_wall_s() - t0;

  if (options.digests && out.ok) {
    out.digest = state.digest;
    out.trace_events = state.events;
    out.simulations = state.sims;
    out.final_time = state.final_time;
  }
  if (options.lint && out.ok) {
    simlint::LintSummary lint = simlint::analyze(comm_log, kLintFindingsCap);
    out.races = lint.races;
    out.hb_edges = lint.hb_edges;
    out.causal_sends = lint.causal_sends;
    out.leaks = lint.leaks;
    out.lint_status = simlint::lint_status(lint, spec.races_expected);
    out.findings = std::move(lint.findings);
    if (!simlint::lint_status_ok(out.lint_status)) {
      out.ok = false;
      out.status = "failed";
      out.error = "lint verdict '" + out.lint_status + "'";
      if (!out.findings.empty())
        out.error += ": [" + out.findings.front().rule + "] " +
                     out.findings.front().message;
    }
  }
  return out;
}

}  // namespace

std::size_t CampaignReport::failures() const {
  std::size_t n = 0;
  for (const ScenarioOutcome& o : outcomes)
    if (!o.ok) ++n;
  return n;
}

CampaignReport run_campaign(const ScenarioRegistry& registry,
                            const CampaignOptions& options,
                            const CampaignProgress& progress) {
  // Written so that NaN fails too.
  if (!(options.timeout_s >= 0))
    throw std::invalid_argument(
        "run_campaign: timeout_s must be >= 0 seconds, got " +
        std::to_string(options.timeout_s));
  CampaignReport report;
  report.filter = options.filter;
  report.seed = options.seed;

  const std::vector<std::size_t> selected = registry.match(options.filter);
  report.outcomes.resize(selected.size());

  int jobs = options.jobs;
  if (jobs <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs = hw == 0 ? 1 : static_cast<int>(hw);
  }
  jobs = std::max(1, std::min<int>(jobs, static_cast<int>(selected.size())));
  report.jobs = jobs;

  const double t0 = now_wall_s();
  // Work-stealing by atomic cursor: workers claim the next unstarted
  // scenario, write its outcome into the registration-order slot, and never
  // touch another slot — aggregation is deterministic by construction.
  std::atomic<std::size_t> cursor{0};
  std::mutex progress_mutex;
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= selected.size()) return;
      const ScenarioSpec& spec = registry.scenarios()[selected[i]];
      report.outcomes[i] = run_one(spec, options);
      if (progress) {
        const std::lock_guard<std::mutex> lock(progress_mutex);
        progress(report.outcomes[i]);
      }
    }
  };
  if (jobs == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  report.wall_s = now_wall_s() - t0;
  return report;
}

bool write_campaign_json(const std::string& path,
                         const CampaignReport& report) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\n  \"schema\": \"gridsim-campaign/1\",\n"
               "  \"filter\": \"%s\",\n  \"jobs\": %d,\n"
               "  \"seed\": %llu,\n  \"wall_s\": %.6f,\n"
               "  \"scenarios\": %zu,\n  \"failures\": %zu,\n",
               json_escape(report.filter).c_str(), report.jobs,
               static_cast<unsigned long long>(report.seed), report.wall_s,
               report.outcomes.size(), report.failures());
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const ScenarioOutcome& o = report.outcomes[i];
    // One scenario per line (shell-diffable; see scripts/check_campaign.sh).
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"group\": \"%s\", \"ok\": %s, "
                 "\"digest\": \"%016llx\", \"trace_events\": %llu, "
                 "\"simulations\": %llu, \"final_time_ns\": %lld, "
                 "\"wall_s\": %.6f, \"status\": \"%s\", "
                 "\"races\": %d, \"hb_edges\": %llu, "
                 "\"lint_status\": \"%s\", \"causal_sends\": %d, "
                 "\"leaks\": %d, \"findings\": [",
                 json_escape(o.name).c_str(), json_escape(o.group).c_str(),
                 o.ok ? "true" : "false",
                 static_cast<unsigned long long>(o.digest),
                 static_cast<unsigned long long>(o.trace_events),
                 static_cast<unsigned long long>(o.simulations),
                 static_cast<long long>(o.final_time), o.wall_s,
                 json_escape(o.status).c_str(), o.races,
                 static_cast<unsigned long long>(o.hb_edges),
                 json_escape(o.lint_status).c_str(), o.causal_sends, o.leaks);
    for (std::size_t k = 0; k < o.findings.size(); ++k) {
      const simlint::Finding& finding = o.findings[k];
      std::fprintf(f,
                   "%s{\"rule\": \"%s\", \"severity\": \"%s\", "
                   "\"site_a\": \"%s\", \"site_b\": \"%s\", "
                   "\"message\": \"%s\"}",
                   k ? ", " : "", json_escape(finding.rule).c_str(),
                   json_escape(finding.severity).c_str(),
                   json_escape(finding.site_a).c_str(),
                   json_escape(finding.site_b).c_str(),
                   json_escape(finding.message).c_str());
    }
    std::fprintf(f, "]");
    if (!o.ok)
      std::fprintf(f, ", \"error\": \"%s\"", json_escape(o.error).c_str());
    if (!o.result.note.empty())
      std::fprintf(f, ", \"note\": \"%s\"",
                   json_escape(o.result.note).c_str());
    std::fprintf(f, ", \"metrics\": {");
    for (std::size_t m = 0; m < o.result.metrics.size(); ++m) {
      const Metric& metric = o.result.metrics[m];
      std::fprintf(f, "%s\"%s\": %.17g", m ? ", " : "",
                   json_escape(metric.name).c_str(), metric.value);
    }
    std::fprintf(f, "}}%s\n",
                 i + 1 < report.outcomes.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return std::fclose(f) == 0;
}

std::string render_group(const ScenarioRegistry& registry,
                         const std::string& group,
                         const CampaignReport& report) {
  std::vector<const ScenarioSpec*> specs;
  std::vector<const ScenarioResult*> results;
  std::string failures;
  for (const ScenarioOutcome& o : report.outcomes) {
    if (o.group != group) continue;
    const ScenarioSpec* spec = registry.find(o.name);
    if (spec == nullptr) continue;
    specs.push_back(spec);
    results.push_back(&o.result);
    if (!o.ok)
      failures += "  !! " + o.name + " FAILED: " + o.error + "\n";
  }
  if (specs.empty()) return {};

  std::string out;
  if (const GroupRenderer* render = registry.renderer(group);
      render != nullptr && failures.empty()) {
    // Renderers may index any metric their scenarios promise; with a failed
    // (empty) result in the group that contract is void, so fall back to
    // the generic rendering below instead.
    out = (*render)(specs, results);
  } else {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      out += results[i]->text;
      if (!results[i]->note.empty())
        out += "  " + specs[i]->name + ": " + results[i]->note + "\n";
    }
  }
  return failures + out;
}

}  // namespace gridsim::harness
