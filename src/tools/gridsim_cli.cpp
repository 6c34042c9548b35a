// gridsim — command-line driver for the simulator.
//
//   gridsim pingpong  [--impl NAME] [--tuning default|tcp|full] [--cluster]
//                     [--min BYTES] [--max BYTES] [--rounds N]
//   gridsim latency   [--impl NAME] [--tuning ...]
//   gridsim nas       [--kernel K] [--class S|W|A|B|C] [--ranks N]
//                     [--impl NAME] [--tuning ...] [--cluster]
//   gridsim ray2mesh  [--master SITE] [--rays N] [--impl NAME]
//   gridsim simri     [--object N] [--nodes N]
//   gridsim slowstart [--impl NAME] [--messages N] [--cross-traffic]
//   gridsim campaign  [--filter GLOB] [--jobs N] [--out DIR] [--seed N]
//                     [--timeout-s N] [--render] [--list]
//   gridsim mc        [--scenario GLOB] [--max-execs N] [--ranks-cap K]
//                     [--seed N] [--out DIR] [--no-hb] [--list]
//   gridsim coll      [--list] [--verify] [--impl NAME] [--json OUT]
//   gridsim replay    --witness FILE [--reps N]
//
// Every subcommand parses its flags through the typed OptionParser
// (tools/cli.hpp): declared options with defaults, `--key=value`, strict
// numeric validation, unknown-flag errors and generated `--help`.
//
// `campaign` runs the paper's full experiment catalog (or a --filter glob
// subset) on a worker-thread pool, trace-digesting every scenario, and
// writes one consolidated CAMPAIGN.json report (schema "gridsim-campaign/1",
// documented in docs/usage.md). Per-scenario digests are independent of
// --jobs: `--jobs 8` must equal `--jobs 1` byte for byte, which CI checks.
// Every scenario also runs the happens-before race analysis (simlint,
// docs/race-detection.md); its verdict and first findings are part of the
// row, and an unexpected race or a leak fails the scenario.
// --timeout-s arms a per-scenario wall-clock watchdog: a scenario that
// exceeds it is reported with "status": "timeout" and the campaign exits
// non-zero without aborting the remaining scenarios.
//
// `mc` is the DPOR-lite ordering model-checker (simmc/mc.hpp,
// docs/model-checking.md): it re-executes each matched scenario under every
// legal wildcard matching order (up to --max-execs) and asserts no
// interleaving deadlocks or changes the scenario's result digest. A found
// deadlock is minimized and written as a witness file that `replay`
// reproduces deterministically. Writes MC.json (schema "gridsim-mc/1").
// --no-hb disables the happens-before persistent-set reduction (simlint).
//
// `coll` exposes the collective-algorithm layer (docs/collectives.md):
// --list prints the registered algorithms and each implementation's
// selector decision table; --verify runs the Hunold-style performance
// guideline sweep (composition + size monotonicity) over profile x size x
// topology and exits non-zero on any violation. The catalog's
// coll/verify-<impl> and coll/misrule-fixture scenarios run the same sweep
// in every campaign.
//
// Implementations: TCP, MPICH2, GridMPI, MPICH-Madeleine, OpenMPI,
// MPICH-G2.
#include <algorithm>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/ray2mesh.hpp"
#include "apps/simri.hpp"
#include "collectives/guidelines.hpp"
#include "collectives/registry.hpp"
#include "collectives/selector.hpp"
#include "harness/campaign.hpp"
#include "harness/npb_campaign.hpp"
#include "harness/pingpong.hpp"
#include "harness/report.hpp"
#include "profiles/profiles.hpp"
#include "scenarios/catalog.hpp"
#include "simmc/mc.hpp"
#include "tools/cli.hpp"

namespace {

using namespace gridsim;
using cli::OptionParser;

/// Exit status shared by every subcommand after OptionParser::parse.
bool parse_or_exit(const OptionParser& parser, int argc, char** argv,
                   int* status) {
  switch (parser.parse(argc, argv)) {
    case OptionParser::Result::kOk:
      return true;
    case OptionParser::Result::kHelp:
      *status = 0;
      return false;
    case OptionParser::Result::kError:
      break;
  }
  *status = 2;
  return false;
}

mpi::ImplProfile impl_by_name(const std::string& name) {
  if (name == "TCP") return profiles::raw_tcp();
  if (name == "MPICH-G2") return profiles::mpich_g2();
  for (const auto& p : profiles::all_implementations())
    if (p.name == name) return p;
  std::fprintf(stderr,
               "unknown implementation '%s' (TCP, MPICH2, GridMPI, "
               "MPICH-Madeleine, OpenMPI, MPICH-G2)\n",
               name.c_str());
  std::exit(2);
}

profiles::TuningLevel tuning_by_name(const std::string& name) {
  if (name == "default") return profiles::TuningLevel::kDefault;
  if (name == "tcp") return profiles::TuningLevel::kTcpTuned;
  if (name == "full") return profiles::TuningLevel::kFullyTuned;
  std::fprintf(stderr, "unknown tuning level '%s' (default, tcp, full)\n",
               name.c_str());
  std::exit(2);
}

npb::Class class_by_name(const std::string& name) {
  if (name == "S") return npb::Class::kS;
  if (name == "W") return npb::Class::kW;
  if (name == "A") return npb::Class::kA;
  if (name == "B") return npb::Class::kB;
  if (name == "C") return npb::Class::kC;
  std::fprintf(stderr, "unknown problem class '%s' (S, W, A, B, C)\n",
               name.c_str());
  std::exit(2);
}

int cmd_pingpong(int argc, char** argv) {
  std::string impl_name = "MPICH2", tuning = "full";
  bool cluster = false;
  double min_bytes = 1024, max_bytes = 64.0 * 1024 * 1024;
  int rounds = 12;
  OptionParser parser("pingpong",
                      "Ping-pong latency/bandwidth sweep (Figs 3/5/6/7).");
  parser.string_opt("impl", &impl_name, "implementation name")
      .string_opt("tuning", &tuning, "tuning level: default|tcp|full")
      .flag("cluster", &cluster, "run inside one cluster instead of the grid")
      .real_opt("min", &min_bytes, "smallest message size (bytes)")
      .real_opt("max", &max_bytes, "largest message size (bytes)")
      .int_opt("rounds", &rounds, "round trips per size");
  int status = 0;
  if (!parse_or_exit(parser, argc, argv, &status)) return status;

  const auto impl = impl_by_name(impl_name);
  const profiles::ExperimentConfig cfg =
      profiles::experiment(impl).tuning(tuning_by_name(tuning));
  const auto spec = cluster ? topo::GridSpec::single_cluster(2)
                            : topo::GridSpec::rennes_nancy(1);
  const harness::PingpongEndpoints ends =
      cluster ? harness::PingpongEndpoints{0, 0, 0, 1}
              : harness::PingpongEndpoints{0, 0, 1, 0};
  harness::PingpongOptions opt;
  opt.sizes = harness::pow2_sizes(min_bytes, max_bytes);
  opt.rounds = rounds;
  const auto points = harness::pingpong_sweep(spec, ends, cfg, opt);
  std::printf("# pingpong %s (%s, %s)\n", impl.name.c_str(),
              cluster ? "cluster" : "grid", tuning.c_str());
  std::printf("%10s %14s %16s\n", "size", "latency (us)", "bandwidth (Mbps)");
  for (const auto& p : points) {
    std::printf("%10s %14.1f %16.1f\n",
                harness::format_bytes(p.bytes).c_str(),
                to_microseconds(p.min_one_way), p.max_bandwidth_mbps);
  }
  return 0;
}

int cmd_latency(int argc, char** argv) {
  std::string impl_name = "MPICH2", tuning = "default";
  OptionParser parser("latency", "One-way 1-byte latency (Table 4).");
  parser.string_opt("impl", &impl_name, "implementation name")
      .string_opt("tuning", &tuning, "tuning level: default|tcp|full");
  int status = 0;
  if (!parse_or_exit(parser, argc, argv, &status)) return status;

  const auto impl = impl_by_name(impl_name);
  const profiles::ExperimentConfig cfg =
      profiles::experiment(impl).tuning(tuning_by_name(tuning));
  const SimTime lan = harness::pingpong_min_latency(
      topo::GridSpec::single_cluster(2), {0, 0, 0, 1}, cfg);
  const SimTime wan = harness::pingpong_min_latency(
      topo::GridSpec::rennes_nancy(1), {0, 0, 1, 0}, cfg);
  std::printf("%s: cluster %.1f us, grid %.1f us (one-way)\n",
              impl.name.c_str(), to_microseconds(lan), to_microseconds(wan));
  return 0;
}

int cmd_nas(int argc, char** argv) {
  std::string kname = "CG", cname = "A", impl_name = "MPICH2", tuning = "tcp";
  int ranks = 16;
  bool cluster = false;
  OptionParser parser("nas", "One NPB kernel run (Figs 10-13 cells).");
  parser.string_opt("kernel", &kname, "NPB kernel: EP|CG|MG|LU|SP|BT|IS|FT")
      .string_opt("class", &cname, "problem class: S|W|A|B|C")
      .int_opt("ranks", &ranks, "number of MPI ranks")
      .string_opt("impl", &impl_name, "implementation name")
      .string_opt("tuning", &tuning, "tuning level: default|tcp|full")
      .flag("cluster", &cluster, "run inside one cluster instead of 8+8");
  int status = 0;
  if (!parse_or_exit(parser, argc, argv, &status)) return status;

  npb::Kernel kernel = npb::Kernel::kCG;
  bool found = false;
  for (auto k : npb::all_kernels())
    if (npb::name(k) == kname) {
      kernel = k;
      found = true;
    }
  if (!found) {
    std::fprintf(stderr, "unknown kernel '%s'\n", kname.c_str());
    return 2;
  }
  const npb::Class cls = class_by_name(cname);
  npb::validate_ranks(kernel, ranks);
  const auto impl = impl_by_name(impl_name);
  const profiles::ExperimentConfig cfg =
      profiles::experiment(impl).tuning(tuning_by_name(tuning));
  const auto spec = cluster ? topo::GridSpec::single_cluster(ranks)
                            : topo::GridSpec::rennes_nancy((ranks + 1) / 2);
  const auto res = harness::run_npb(spec, ranks, kernel, cls, cfg);
  std::printf("NPB %s class %s, %d ranks, %s, %s: %.2f s\n", kname.c_str(),
              cname.c_str(), ranks, impl.name.c_str(),
              cluster ? "cluster" : "grid", to_seconds(res.makespan));
  std::printf("  p2p: %llu msgs / %.1f MB; collective: %llu msgs / %.1f MB\n",
              static_cast<unsigned long long>(res.traffic.p2p_messages),
              res.traffic.p2p_bytes / 1e6,
              static_cast<unsigned long long>(res.traffic.collective_messages),
              res.traffic.collective_bytes / 1e6);
  return 0;
}

int cmd_ray2mesh(int argc, char** argv) {
  std::string master_name = "rennes", impl_name = "GridMPI";
  double rays = 1e6;
  OptionParser parser("ray2mesh",
                      "The paper's seismic ray tracer (Tables 6/7).");
  parser.string_opt("master", &master_name,
                    "master site: rennes|nancy|sophia|toulouse")
      .real_opt("rays", &rays, "total rays to trace")
      .string_opt("impl", &impl_name, "implementation name");
  int status = 0;
  if (!parse_or_exit(parser, argc, argv, &status)) return status;

  const auto spec = topo::GridSpec::ray2mesh_quad(8);
  int master = -1;
  for (int s = 0; s < static_cast<int>(spec.sites.size()); ++s)
    if (spec.sites[static_cast<size_t>(s)].name == master_name) master = s;
  if (master < 0) {
    std::fprintf(stderr,
                 "unknown master site '%s' (rennes, nancy, sophia, toulouse)\n",
                 master_name.c_str());
    return 2;
  }
  if (!(rays >= 1 && rays <= INT_MAX)) {
    std::fprintf(stderr, "ray2mesh: --rays must be in [1, %d], got %g\n",
                 INT_MAX, rays);
    return 2;
  }
  apps::Ray2MeshConfig app;
  app.total_rays = static_cast<int>(rays);
  const profiles::ExperimentConfig cfg =
      profiles::experiment(impl_by_name(impl_name))
          .tuning(profiles::TuningLevel::kTcpTuned);
  const auto res = apps::run_ray2mesh(spec, master, cfg, app);
  std::printf(
      "ray2mesh, master=%s: compute %.1f s, merge %.1f s, total %.1f s\n",
      master_name.c_str(), to_seconds(res.compute_time),
      to_seconds(res.merge_time), to_seconds(res.total_time));
  for (int s = 0; s < static_cast<int>(res.rays_per_site.size()); ++s)
    std::printf("  %-9s %d rays\n",
                spec.sites[static_cast<size_t>(s)].name.c_str(),
                res.rays_per_site[static_cast<size_t>(s)]);
  return 0;
}

int cmd_simri(int argc, char** argv) {
  int object_n = 256, nodes = 8;
  OptionParser parser("simri", "MRI simulator scaling run (Section 2.2.2).");
  parser.int_opt("object", &object_n, "object grid size (NxN)")
      .int_opt("nodes", &nodes, "worker nodes");
  int status = 0;
  if (!parse_or_exit(parser, argc, argv, &status)) return status;

  apps::SimriConfig app;
  app.object_n = object_n;
  const profiles::ExperimentConfig cfg =
      profiles::experiment(profiles::mpich2());
  const auto res =
      apps::run_simri(topo::GridSpec::single_cluster(16), nodes, cfg, app);
  std::printf(
      "simri %dx%d on %d nodes: total %.2f s, comm %.2f%%, speedup %.2f, "
      "efficiency %.2f\n",
      app.object_n, app.object_n, nodes, to_seconds(res.total_time),
      res.comm_fraction * 100, res.speedup, res.efficiency);
  return 0;
}

int cmd_slowstart(int argc, char** argv) {
  std::string impl_name = "TCP";
  int messages = 200;
  bool cross_traffic = false;
  OptionParser parser("slowstart",
                      "Cold-connection per-message bandwidth series (Fig 9).");
  parser.string_opt("impl", &impl_name, "implementation name")
      .int_opt("messages", &messages, "number of back-to-back 1 MB messages")
      .flag("cross-traffic", &cross_traffic,
            "add bursty cross traffic on 1 Gbps uplinks");
  int status = 0;
  if (!parse_or_exit(parser, argc, argv, &status)) return status;

  const auto impl = impl_by_name(impl_name);
  const profiles::ExperimentConfig cfg =
      profiles::experiment(impl).tuning(profiles::TuningLevel::kFullyTuned);
  auto spec = topo::GridSpec::rennes_nancy(2);
  harness::CrossTraffic cross;
  if (cross_traffic) {
    for (auto& site : spec.sites) site.uplink_bps = 1e9;
    cross.burst_bytes = 24e6;
    cross.period = milliseconds(600);
  }
  const auto series =
      harness::slowstart_series(spec, {0, 0, 1, 0}, cfg, 1e6, messages,
                                cross);
  std::printf("# t_s,mbps (%s)\n", impl.name.c_str());
  for (const auto& s : series)
    std::printf("%.3f,%.1f\n", to_seconds(s.at), s.mbps);
  return 0;
}

int cmd_campaign(int argc, char** argv) {
  std::string filter = "*", out_dir = ".";
  int jobs = 0;
  std::uint64_t seed = 1;
  double timeout_s = 0;
  bool render = false, list = false;
  OptionParser parser(
      "campaign",
      "Run the paper's experiment catalog concurrently; write CAMPAIGN.json.\n"
      "Per-scenario trace digests are independent of --jobs.");
  parser.string_opt("filter", &filter,
                    "glob over scenario names and groups ('table4*', 'fig?')")
      .int_opt("jobs", &jobs, "worker threads; 0 = hardware concurrency")
      .string_opt("out", &out_dir, "output directory for CAMPAIGN.json")
      .u64_opt("seed", &seed, "seed folded into every scenario digest")
      .real_opt("timeout-s", &timeout_s,
                "per-scenario wall-clock watchdog in seconds; 0 = none")
      .flag("render", &render, "print each group's figure/table after the run")
      .flag("list", &list, "list matching scenarios and exit");
  int status = 0;
  if (!parse_or_exit(parser, argc, argv, &status)) return status;

  const auto& registry = scenarios::paper_registry();
  const auto selected = registry.match(filter);
  if (selected.empty()) {
    std::fprintf(stderr, "no scenario matches '%s'\n", filter.c_str());
    return 2;
  }
  if (list) {
    for (std::size_t idx : selected) {
      const auto& spec = registry.scenarios()[idx];
      std::printf("%-40s %s%s\n", spec.name.c_str(),
                  spec.races_expected ? "[races-expected] " : "",
                  spec.description.c_str());
    }
    std::printf("%zu scenarios\n", selected.size());
    return 0;
  }

  harness::CampaignOptions options;
  options.filter = filter;
  options.jobs = jobs;
  options.seed = seed;
  options.timeout_s = timeout_s;
  const std::size_t total = selected.size();
  std::size_t done = 0;
  // The campaign runner serializes progress callbacks, so the counter and
  // stdout need no further locking.
  const auto progress = [&done, total](const harness::ScenarioOutcome& o) {
    ++done;
    if (o.ok) {
      std::printf("[%3zu/%zu] %-40s ok    digest=%016" PRIx64 " %.2fs\n",
                  done, total, o.name.c_str(), o.digest, o.wall_s);
    } else {
      std::printf("[%3zu/%zu] %-40s %s  %s\n", done, total, o.name.c_str(),
                  o.status == "timeout" ? "TIMEOUT" : "FAIL", o.error.c_str());
    }
    std::fflush(stdout);
  };
  const auto report = harness::run_campaign(registry, options, progress);

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string json_path = out_dir + "/CAMPAIGN.json";
  if (!harness::write_campaign_json(json_path, report)) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
    return 1;
  }

  if (render) {
    std::vector<std::string> seen;
    for (const auto& outcome : report.outcomes) {
      if (std::find(seen.begin(), seen.end(), outcome.group) != seen.end())
        continue;
      seen.push_back(outcome.group);
      std::fputs(
          harness::render_group(registry, outcome.group, report).c_str(),
          stdout);
    }
  }

  std::printf("campaign: %zu scenarios, %zu failed, jobs=%d, %.2fs; wrote %s\n",
              report.outcomes.size(), report.failures(), report.jobs,
              report.wall_s, json_path.c_str());
  return report.failures() == 0 ? 0 : 1;
}

int cmd_mc(int argc, char** argv) {
  std::string filter = "mc/*", out_dir = ".";
  int max_execs = 64, ranks_cap = 8, minimize_budget = 32;
  std::uint64_t seed = 1;
  bool list = false, no_hb = false;
  OptionParser parser(
      "mc",
      "DPOR-lite ordering model-checker: explore every legal wildcard\n"
      "matching order of each matched scenario; assert no interleaving\n"
      "deadlocks or changes the result digest. Writes MC.json and, for a\n"
      "found deadlock, a minimized witness file for `gridsim replay`.");
  parser.string_opt("scenario", &filter,
                    "glob over scenario names and groups (default 'mc/*')")
      .int_opt("max-execs", &max_execs, "execution budget per scenario")
      .int_opt("ranks-cap", &ranks_cap,
               "skip scenarios with more (or undeclared) ranks")
      .int_opt("minimize-budget", &minimize_budget,
               "extra executions allowed for witness minimization")
      .u64_opt("seed", &seed, "scenario seed used for every execution")
      .string_opt("out", &out_dir,
                  "output directory for MC.json and witness files")
      .flag("no-hb", &no_hb,
            "disable the happens-before persistent-set reduction")
      .flag("list", &list, "list matching scenarios and exit");
  int status = 0;
  if (!parse_or_exit(parser, argc, argv, &status)) return status;

  const auto& registry = scenarios::paper_registry();
  const auto selected = registry.match(filter);
  if (selected.empty()) {
    std::fprintf(stderr, "no scenario matches '%s'\n", filter.c_str());
    return 2;
  }
  if (list) {
    for (std::size_t idx : selected) {
      const auto& spec = registry.scenarios()[idx];
      std::printf("%-40s ranks=%d  %s\n", spec.name.c_str(), spec.ranks,
                  spec.description.c_str());
    }
    std::printf("%zu scenarios\n", selected.size());
    return 0;
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  simmc::McOptions mc_options;
  mc_options.max_execs = max_execs;
  mc_options.seed = seed;
  mc_options.minimize_budget = minimize_budget;
  mc_options.hb_sets = !no_hb;

  std::vector<simmc::McReport> reports;
  std::size_t done = 0;
  for (std::size_t idx : selected) {
    const auto& spec = registry.scenarios()[idx];
    ++done;
    if (spec.ranks <= 0 || spec.ranks > ranks_cap) {
      simmc::McReport rep;
      rep.scenario = spec.name;
      rep.status = "skipped";
      rep.detail = spec.ranks <= 0
                       ? "scenario declares no rank count"
                       : std::to_string(spec.ranks) + " ranks > cap " +
                             std::to_string(ranks_cap);
      std::printf("[%3zu/%zu] %-40s skipped (%s)\n", done, selected.size(),
                  spec.name.c_str(), rep.detail.c_str());
      reports.push_back(std::move(rep));
      continue;
    }
    simmc::McReport rep = simmc::explore(spec, mc_options);
    if (rep.status == "deadlock") {
      std::string fname = spec.name;
      std::replace(fname.begin(), fname.end(), '/', '-');
      const std::string wpath = out_dir + "/" + fname + ".witness";
      if (rep.witness.save(wpath)) {
        rep.witness_path = wpath;
      } else {
        std::fprintf(stderr, "error: cannot write witness %s\n",
                     wpath.c_str());
      }
    }
    std::printf("[%3zu/%zu] %-40s %-17s execs=%-4d races=%-2d pruned=%-3d "
                "hb_pruned=%-3d %s\n",
                done, selected.size(), spec.name.c_str(), rep.status.c_str(),
                rep.executions, rep.race_points, rep.pruned, rep.hb_pruned,
                rep.detail.c_str());
    std::fflush(stdout);
    reports.push_back(std::move(rep));
  }

  const std::string json_path = out_dir + "/MC.json";
  if (!simmc::write_mc_json(json_path, filter, mc_options, ranks_cap,
                            reports)) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::size_t failures = 0;
  for (const auto& rep : reports)
    if (!rep.ok()) ++failures;
  std::printf("mc: %zu scenarios, %zu failed; wrote %s\n", reports.size(),
              failures, json_path.c_str());
  return failures == 0 ? 0 : 1;
}

/// One row of the `coll --list` decision table.
void print_rules(const mpi::CollRules& table, mpi::CollOp op) {
  for (const auto& r : coll::Selector::effective_rules(table, op)) {
    std::string bytes_band = "any size";
    const bool has_min = r.min_bytes > 0;
    const bool has_max = r.max_bytes < 1e18;
    if (has_min || has_max) {
      bytes_band =
          (has_min ? std::to_string(static_cast<long long>(r.min_bytes))
                   : std::string("0")) +
          ".." +
          (has_max ? std::to_string(static_cast<long long>(r.max_bytes))
                   : std::string("inf")) +
          " B";
    }
    std::string extras;
    if (r.min_ranks > 0 || r.max_ranks < INT_MAX)
      extras += "  ranks " + std::to_string(r.min_ranks) + ".." +
                (r.max_ranks < INT_MAX ? std::to_string(r.max_ranks) : "inf");
    if (r.topo != mpi::TopoScope::kAny)
      extras += std::string("  [") + mpi::to_string(r.topo) + "]";
    std::printf("    %-9s -> %-18s %s%s\n", mpi::to_string(r.op).c_str(),
                r.algo.c_str(), bytes_band.c_str(), extras.c_str());
  }
}

int cmd_coll(int argc, char** argv) {
  std::string impl_name = "all", out_path;
  bool list = false, verify = false;
  OptionParser parser(
      "coll",
      "Collective-algorithm registry and selector guideline verifier.\n"
      "--list prints the registered algorithms and each implementation's\n"
      "decision table; --verify sweeps profile x size x topology and flags\n"
      "self-contradictory selections (composition and size-monotonicity\n"
      "guidelines, docs/collectives.md). Exits non-zero on any violation.");
  parser.flag("list", &list, "print the registry and decision tables")
      .flag("verify", &verify, "run the guideline sweep")
      .string_opt("impl", &impl_name, "implementation name, or 'all'")
      .string_opt("json", &out_path,
                  "write a consolidated gridsim-coll/1 report to this path");
  int status = 0;
  if (!parse_or_exit(parser, argc, argv, &status)) return status;
  if (!verify) list = true;  // default action

  std::vector<mpi::ImplProfile> impls;
  if (impl_name == "all") {
    impls = profiles::all_implementations();
  } else {
    impls.push_back(impl_by_name(impl_name));
  }
  if (list) {
    const auto& reg = coll::AlgorithmRegistry::instance();
    std::printf("# registered algorithms\n");
    const auto print_entry = [](const char* op, const auto& a) {
      std::printf("  %-9s %-32s %s%s\n", op, a.name.c_str(),
                  a.wan_aware ? "[wan-aware] " : "", a.description.c_str());
    };
    for (const auto& a : reg.bcast()) print_entry("bcast", a);
    for (const auto& a : reg.allreduce()) print_entry("allreduce", a);
    for (const auto& a : reg.alltoall()) print_entry("alltoall", a);
    for (const auto& a : reg.barrier()) print_entry("barrier", a);
    for (const auto& impl : impls) {
      std::printf("\n# decision table: %s (first match wins)\n",
                  impl.name.c_str());
      for (auto op : {mpi::CollOp::kBcast, mpi::CollOp::kAllreduce,
                      mpi::CollOp::kAlltoall, mpi::CollOp::kBarrier})
        print_rules(*impl.collectives, op);
    }
  }

  if (!verify) return 0;

  coll::GuidelineReport all;
  for (const auto& impl : impls) {
    const profiles::ExperimentConfig cfg =
        profiles::experiment(impl).tuning(profiles::TuningLevel::kTcpTuned);
    for (const auto& d : coll::guideline_deployments()) {
      coll::GuidelineOptions opt;
      opt.cyclic = d.cyclic;
      const coll::GuidelineReport rep = coll::verify_guidelines(
          d.spec, d.label, cfg.profile, cfg.kernel, opt);
      std::printf("coll verify %-16s %-8s %2zu cells, %d violation(s)\n",
                  impl.name.c_str(), d.label, rep.cells.size(),
                  rep.violations());
      for (const auto& c : rep.cells)
        if (c.violated)
          std::printf("    VIOLATION %-32s %8.0f B  ratio %.2f > %.2f  (%s)\n",
                      c.guideline.c_str(), c.bytes, c.ratio, c.tolerance,
                      c.detail.c_str());
      all.cells.insert(all.cells.end(), rep.cells.begin(), rep.cells.end());
    }
  }

  if (!out_path.empty()) {
    if (!coll::write_coll_json(out_path, all)) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("coll: wrote %s\n", out_path.c_str());
  }
  std::printf("coll: %zu cells, %d violation(s)\n", all.cells.size(),
              all.violations());
  return all.violations() == 0 ? 0 : 1;
}

int cmd_replay(int argc, char** argv) {
  std::string witness_path;
  int reps = 2;
  OptionParser parser(
      "replay",
      "Re-execute a model-checker deadlock witness. Exits 0 only if every\n"
      "replay deadlocks with an identical blocked report.");
  parser.string_opt("witness", &witness_path,
                    "witness file written by `gridsim mc`")
      .int_opt("reps", &reps, "number of replays to compare");
  int status = 0;
  if (!parse_or_exit(parser, argc, argv, &status)) return status;
  if (witness_path.empty()) {
    std::fprintf(stderr, "replay: --witness FILE is required\n");
    return 2;
  }
  reps = std::max(1, reps);

  simmc::Witness witness;
  std::string error;
  if (!simmc::Witness::load(witness_path, &witness, &error)) {
    std::fprintf(stderr, "replay: %s\n", error.c_str());
    return 2;
  }
  const auto* spec = scenarios::paper_registry().find(witness.scenario);
  if (spec == nullptr) {
    std::fprintf(stderr, "replay: unknown scenario '%s'\n",
                 witness.scenario.c_str());
    return 2;
  }

  std::printf("replay: %s, seed=%" PRIu64 ", %zu forced choice(s)\n",
              witness.scenario.c_str(), witness.seed,
              witness.choices.size());
  std::vector<std::string> first_blocked;
  for (int rep = 0; rep < reps; ++rep) {
    const simmc::ExecutionRecord rec =
        simmc::run_scripted(*spec, witness.choices, witness.seed);
    if (rec.failed) {
      std::fprintf(stderr, "replay %d: execution failed: %s\n", rep + 1,
                   rec.error.c_str());
      return 1;
    }
    if (!rec.deadlocked) {
      std::fprintf(stderr,
                   "replay %d: completed WITHOUT deadlocking — the witness "
                   "does not reproduce\n",
                   rep + 1);
      return 1;
    }
    if (rep == 0) {
      first_blocked = rec.blocked;
      for (const auto& line : rec.blocked)
        std::printf("  %s\n", line.c_str());
    } else if (rec.blocked != first_blocked) {
      std::fprintf(stderr,
                   "replay %d: deadlocked with a DIFFERENT blocked report — "
                   "replay is not deterministic\n",
                   rep + 1);
      return 1;
    }
  }
  std::printf("replay: deadlock reproduced identically %d/%d times\n", reps,
              reps);
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: gridsim <command> [--options]\n"
      "commands:\n"
      "  pingpong   ping-pong latency/bandwidth sweep (Figs 3/5/6/7)\n"
      "  latency    one-way 1-byte latency (Table 4)\n"
      "  nas        one NPB kernel run (Figs 10-13 cells)\n"
      "  ray2mesh   the paper's seismic ray tracer (Tables 6/7)\n"
      "  simri      MRI simulator scaling run\n"
      "  slowstart  cold-connection bandwidth series (Fig 9)\n"
      "  campaign   parallel experiment campaign -> CAMPAIGN.json\n"
      "  mc         ordering model-checker over wildcard matches -> MC.json\n"
      "  coll       collective-algorithm registry + guideline verifier\n"
      "  replay     re-execute a model-checker deadlock witness\n"
      "run 'gridsim <command> --help' for the command's options\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const int opt_argc = argc - 2;
  char** opt_argv = argv + 2;
  try {
    if (command == "pingpong") return cmd_pingpong(opt_argc, opt_argv);
    if (command == "latency") return cmd_latency(opt_argc, opt_argv);
    if (command == "nas") return cmd_nas(opt_argc, opt_argv);
    if (command == "ray2mesh") return cmd_ray2mesh(opt_argc, opt_argv);
    if (command == "simri") return cmd_simri(opt_argc, opt_argv);
    if (command == "slowstart") return cmd_slowstart(opt_argc, opt_argv);
    if (command == "campaign") return cmd_campaign(opt_argc, opt_argv);
    if (command == "mc") return cmd_mc(opt_argc, opt_argv);
    if (command == "coll") return cmd_coll(opt_argc, opt_argv);
    if (command == "replay") return cmd_replay(opt_argc, opt_argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
