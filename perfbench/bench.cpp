// gridsim benchmark program: one workload, in one process.
//
//   gridsim_perfbench --workload npb_lu|npb_bulk|campaign_nas --seed N
//                     [--seconds S | --setup-only | --traced --spans FILE]
//
// Prints one JSON object on stdout. perfbench/run.py builds this program,
// runs it, checks the simulated outputs against perfbench/reference.json
// and reports the metrics (perfbench/README.md).
//
// Timed mode (the default) measures from outside only: host wall and CPU
// time of each pass over the workload's calls into harness::run_npb or
// harness::run_campaign, and the process's peak resident memory. It reads
// no per-layer data. A first pass warms the process up untimed; timed
// passes follow until S seconds are used, each with a reading of a fixed
// yardstick of non-simulator work taken on the same thread around it.
// --setup-only measures the set-up time of a fresh process instead and
// runs nothing.
//
// Traced mode composes every cell of the workload from topo::Grid +
// mpi::Job + npb::run_kernel, so it can reach the network solver and the
// TCP channels, and runs each cell four times: bare (counters read after
// Simulation::run), digest (every trace kind streamed through a timed
// harness::fold_trace_event observer), lint (a ScopedCommLog, then a timed
// simlint::analyze) and bare again. It records a span around each call into
// a layer, keeps the spans in memory and writes them to FILE at exit.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/determinism.hpp"
#include "harness/npb_campaign.hpp"
#include "mpi/comm_log.hpp"
#include "mpi/mpi.hpp"
#include "npb/npb.hpp"
#include "profiles/profiles.hpp"
#include "scenarios/catalog.hpp"
#include "simcore/callback.hpp"
#include "simcore/simulation.hpp"
#include "simlint/lint.hpp"
#include "topology/grid5000.hpp"

namespace {

using namespace gridsim;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

/// User + system CPU seconds of every thread of this process so far.
double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Peak resident memory of this program image. VmHWM restarts at exec,
/// whereas ru_maxrss also counts the pages of the parent that forked it.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (kb < 0 && std::fgets(line, sizeof line, f) != nullptr)
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) != 1) kb = -1;
    std::fclose(f);
    if (kb > 0) return static_cast<double>(kb) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kB
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- JSON output ------------------------------------------------------------

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jnum(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jnum(std::uint64_t v) { return std::to_string(v); }

/// Builds one JSON object as "key": value pairs, values already encoded.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ", ") + jstr(key) + ": " + value;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) { return raw(key, jnum(v)); }
  JsonObject& count(const std::string& key, std::uint64_t v) {
    return raw(key, jnum(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, jstr(v));
  }
  JsonObject& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string jarray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i ? ", " : "") + items[i];
  return out + "]";
}

// --- workloads --------------------------------------------------------------

struct Deployment {
  const char* name;
  topo::GridSpec spec;
  int nranks;
};

/// The deployments of the paper's NPB class-B figures: the 8+8 Rennes-Nancy
/// grid (figs 10, 12, 13), 2+2 (fig 11), and the 16- and 4-node cluster
/// references (figs 12 and 13).
const std::vector<Deployment>& deployments() {
  static const std::vector<Deployment> all = {
      {"grid8x8", topo::GridSpec::rennes_nancy(8), 16},
      {"cluster16", topo::GridSpec::single_cluster(16), 16},
      {"grid2x2", topo::GridSpec::rennes_nancy(2), 4},
      {"cluster4", topo::GridSpec::single_cluster(4), 4},
  };
  return all;
}

struct Cell {
  std::string name;  ///< "<deployment>/<kernel>"
  std::size_t deployment = 0;
  npb::Kernel kernel = npb::Kernel::kEP;
};

struct Workload {
  std::string name;
  /// Deployments whose construction is the workload's set-up.
  std::vector<std::size_t> deployments;
  /// NPB cells: what the timed NPB run executes, and what the traced run
  /// composes for every workload.
  std::vector<Cell> cells;
  bool campaign = false;
};

const char* const kCampaignFilter = "fig1?/OpenMPI";
constexpr int kCampaignJobs = 2;

/// Every cell on `deps` (in that order), kernels in the paper's order, the
/// way the figures' suites run them; `keep` selects the kernels.
std::vector<Cell> suite_cells(const std::vector<std::size_t>& deps,
                              bool (*keep)(npb::Kernel)) {
  std::vector<Cell> cells;
  for (const std::size_t d : deps)
    for (const npb::Kernel k : npb::all_kernels())
      if (keep(k))
        cells.push_back(
            {std::string(deployments()[d].name) + "/" + npb::name(k), d, k});
  return cells;
}

std::optional<Workload> find_workload(const std::string& name) {
  const auto lu = [](npb::Kernel k) { return k == npb::Kernel::kLU; };
  const auto bulk = [](npb::Kernel k) { return k != npb::Kernel::kLU; };
  const auto all = [](npb::Kernel) { return true; };
  if (name == "npb_lu") return Workload{name, {0, 1}, suite_cells({0, 1}, lu)};
  if (name == "npb_bulk")
    return Workload{name, {0, 1}, suite_cells({0, 1}, bulk)};
  if (name == "campaign_nas")
    // The campaign runs the 8+8 grid suite three times; its distinct
    // cells are the four deployments' suites.
    return Workload{name, {0, 2, 1, 3}, suite_cells({0, 2, 1, 3}, all), true};
  return std::nullopt;
}

/// OpenMPI with the TCP tuning, as the NPB figures configure every cell.
profiles::ExperimentConfig nas_config() {
  return profiles::experiment(profiles::openmpi())
      .tuning(profiles::TuningLevel::kTcpTuned);
}

// --- set-up -----------------------------------------------------------------

/// One set-up sample: constructs the Simulation, topo::Grid, fault plan and
/// mpi::Job of every deployment of the workload, timed up to the point
/// where the first event could run; teardown is not timed.
double time_setup(const Workload& w, const profiles::ExperimentConfig& cfg) {
  double total = 0;
  for (const std::size_t d : w.deployments) {
    const Deployment& dep = deployments()[d];
    const double t0 = now_s();
    auto sim = std::make_unique<Simulation>();
    auto grid = std::make_unique<topo::Grid>(*sim, dep.spec);
    auto faults = topo::install_faults(*grid, cfg.faults);
    auto job = std::make_unique<mpi::Job>(
        *grid, mpi::block_placement(*grid, dep.nranks), cfg.profile,
        cfg.kernel);
    total += now_s() - t0;
  }
  return total;
}

/// Construction samples per process; the median discards the cold first one.
constexpr int kSetupReps = 15;

// --- host-speed yardstick ---------------------------------------------------

/// A fixed amount of work that uses no simulator code: a binary-heap
/// schedule whose every step reads a 1 MB random table. Like the NPB cells
/// it stays in the core's own cache, so it slows down with them when the
/// host shares the core; a 4 MB table slowed down with the shared cache
/// instead and did not follow the cells.
class Yardstick {
 public:
  Yardstick() : table_(std::size_t{1} << 18) {
    for (std::uint32_t& v : table_) v = static_cast<std::uint32_t>(next());
  }

  /// Median seconds of one chunk, over chunks run for about `seconds`.
  double measure(double seconds) {
    std::vector<double> chunks;
    const double t_end = now_s() + seconds;
    while (chunks.empty() || now_s() < t_end) {
      const double t0 = now_s();
      sink_ += chunk();
      chunks.push_back(now_s() - t0);
    }
    return median(std::move(chunks));
  }

  /// Printed, so the compiler cannot drop the chunks as unused work.
  std::uint64_t checksum() const { return sink_; }

 private:
  std::uint64_t chunk() {
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    for (int i = 0; i < 4096; ++i) heap.push(next() >> 20);
    std::uint64_t acc = 0;
    for (int i = 0; i < 100000; ++i) {
      const std::uint64_t t = heap.top();
      heap.pop();
      acc += table_[(t ^ acc) & (table_.size() - 1)];
      heap.push(t + (next() & 0xffff));
    }
    return acc;
  }

  std::uint64_t next() {  // xorshift64
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  std::uint64_t state_ = 0x9E3779B97F4A7C15ULL;
  std::uint64_t sink_ = 0;
  std::vector<std::uint32_t> table_;
};

/// Host seconds of yardstick chunks before and after every timed pass.
constexpr double kYardstickS = 0.2;

/// The set-up time of a fresh process: building the scenario registry (its
/// first use, once per process) plus the median time to construct the
/// workload's deployments. The runner takes the median over several
/// processes, so the registry's cold cost is sampled more than once. A
/// short yardstick reading follows, by which the runner scales it.
int run_setup(const Workload& w) {
  const profiles::ExperimentConfig cfg = nas_config();
  const double t0 = now_s();
  (void)scenarios::paper_registry();
  const double registry_s = now_s() - t0;
  std::vector<double> samples;
  for (int i = 0; i < kSetupReps; ++i) samples.push_back(time_setup(w, cfg));
  Yardstick yardstick;
  const double chunk_s = yardstick.measure(kYardstickS / 4);
  std::printf("%s\n", JsonObject()
                          .str("workload", w.name)
                          .str("mode", "setup")
                          .num("setup_s", registry_s + median(samples))
                          .num("chunk_s", chunk_s)
                          .count("yardstick_checksum", yardstick.checksum())
                          .text()
                          .c_str());
  return 0;
}

// --- timed mode -------------------------------------------------------------

/// Wall-clock watchdogs: a cell or scenario that runs this long is reported
/// as timed out (a failed cell) instead of hanging the benchmark.
constexpr double kCellTimeoutS = 60;
constexpr double kScenarioTimeoutS = 90;

/// Simulated outputs of one NPB cell (what the reference pins).
std::string npb_outputs(const std::string& name, SimTime makespan,
                        bool timed_out, const mpi::TrafficStats& t) {
  return JsonObject()
      .str("name", name)
      .flag("ok", !timed_out)
      .count("makespan_ns", static_cast<std::uint64_t>(makespan))
      .count("payload_msgs", t.p2p_messages + t.collective_messages)
      .count("ctrl_msgs", t.control_messages)
      .num("payload_bytes", t.p2p_bytes + t.collective_bytes)
      .text();
}

std::string failed_cell(const std::string& name, const std::string& error) {
  return JsonObject().str("name", name).flag("ok", false).str("error", error)
      .text();
}

/// One cell through the timed path, harness::run_npb.
std::string run_npb_cell(const Cell& c) {
  const Deployment& dep = deployments()[c.deployment];
  SimHooks watchdog;
  watchdog.on_start = [](Simulation& sim) {
    sim.set_wall_deadline(
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kCellTimeoutS)));
  };
  try {
    const harness::NpbRunResult r =
        harness::run_npb(dep.spec, dep.nranks, c.kernel, npb::Class::kB,
                         nas_config(), /*timeout=*/0, watchdog);
    return npb_outputs(c.name, r.makespan, r.timed_out, r.traffic);
  } catch (const std::exception& e) {
    return failed_cell(c.name, e.what());
  }
}

std::string scenario_outputs(const harness::ScenarioOutcome& o) {
  JsonObject metrics;
  for (const harness::Metric& m : o.result.metrics) metrics.num(m.name, m.value);
  return JsonObject()
      .str("name", o.name)
      .flag("ok", o.ok)
      .str("status", o.status)
      .str("error", o.error)
      .raw("metrics", metrics.text())
      .text();
}

harness::CampaignOptions campaign_options(std::uint64_t seed) {
  harness::CampaignOptions opt;
  opt.filter = kCampaignFilter;
  opt.jobs = kCampaignJobs;
  opt.seed = seed;
  opt.digests = true;  // as `gridsim campaign` runs by default
  opt.lint = true;
  opt.timeout_s = kScenarioTimeoutS;
  return opt;
}

/// One pass over the workload's calls; returns each cell's outputs.
std::vector<std::string> run_pass(const Workload& w, std::uint64_t seed) {
  std::vector<std::string> cells;
  if (w.campaign) {
    const harness::CampaignReport report = harness::run_campaign(
        scenarios::paper_registry(), campaign_options(seed));
    for (const harness::ScenarioOutcome& o : report.outcomes)
      cells.push_back(scenario_outputs(o));
  } else {
    for (const Cell& c : w.cells) cells.push_back(run_npb_cell(c));
  }
  return cells;
}

/// The warm-up pass, then timed passes while the next one is expected to
/// end within `seconds` of the start; at least one is timed. The first
/// pass of a process pays for first-touch page faults and empty pools,
/// which vary with the host's memory pressure far more than the simulation
/// does, so it is checked but not timed. The yardstick runs on this thread
/// between passes; each pass reports the mean of the readings before and
/// after it, by which the runner scales its times.
int run_timed(const Workload& w, std::uint64_t seed, double seconds) {
  // Built before timing, as set-up; run_setup measures what this costs.
  (void)scenarios::paper_registry();
  const double begin = now_s();
  const std::vector<std::string> warmup = run_pass(w, seed);
  const double warmup_s = now_s() - begin;
  Yardstick yardstick;
  double before = yardstick.measure(kYardstickS);
  // Each step is a pass and the yardstick reading after it.
  std::vector<double> steps{warmup_s + kYardstickS};
  std::vector<std::string> passes;
  while (passes.empty() || now_s() - begin + median(steps) <= seconds) {
    const double c0 = cpu_s();
    const double t0 = now_s();
    const std::vector<std::string> cells = run_pass(w, seed);
    const double wall = now_s() - t0;
    const double cpu = cpu_s() - c0;
    const double after = yardstick.measure(kYardstickS);
    steps.push_back(now_s() - t0);
    passes.push_back(JsonObject()
                         .num("wall_s", wall)
                         .num("cpu_s", cpu)
                         .num("chunk_s", 0.5 * (before + after))
                         .raw("cells", jarray(cells))
                         .text());
    before = after;
  }
  std::printf("%s\n", JsonObject()
                          .str("workload", w.name)
                          .str("mode", "timed")
                          .num("warmup_s", warmup_s)
                          .count("yardstick_checksum", yardstick.checksum())
                          .raw("warmup_cells", jarray(warmup))
                          .raw("passes", jarray(passes))
                          .num("peak_rss_mb", peak_rss_mb())
                          .text()
                          .c_str());
  return 0;
}

// --- traced mode ------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::string cell;
  std::string pass;
  double start_s = 0;
  double end_s = 0;
  std::string extra;  ///< encoded JSON pairs ("k": v, ...), may be empty
};

/// In-memory span recorder; written once, when the traced run ends.
class SpanLog {
 public:
  std::uint64_t add(Span s) {
    s.id = spans_.size() + 1;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void close(std::uint64_t id, double end_s) { spans_.at(id - 1).end_s = end_s; }
  bool write(const std::string& path, const std::string& header) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{%s, \"spans\": [\n", header.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonObject o;
      o.count("id", s.id).count("parent", s.parent).str("name", s.name);
      if (!s.cell.empty()) o.str("cell", s.cell);
      if (!s.pass.empty()) o.str("pass", s.pass);
      o.num("start_s", s.start_s).num("end_s", s.end_s);
      std::string text = o.text();
      if (!s.extra.empty()) text.insert(text.size() - 1, ", " + s.extra);
      std::fprintf(f, "  %s%s\n", text.c_str(),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

enum class Pass { kBare, kDigest, kLint };

const char* pass_name(Pass p) {
  switch (p) {
    case Pass::kBare:
      return "bare";
    case Pass::kDigest:
      return "digest";
    case Pass::kLint:
      return "lint";
  }
  return "?";
}

/// Everything one traced cell run reads from the layers.
struct CellRun {
  std::string name;
  std::string error;
  SimTime makespan = 0;
  bool timed_out = false;
  mpi::TrafficStats traffic;
  std::uint64_t events = 0;
  std::size_t peak_queue = 0;
  CallbackStats callbacks;
  net::maxmin::SolverStats solver;
  std::uint64_t losses = 0;
  std::uint64_t connections = 0;
  double tcp_bytes = 0;
  double grid_s = 0;  ///< topo::Grid construction
  double run_s = 0;   ///< Simulation::run
  double cell_s = 0;  ///< construction + run + teardown (+ analyze)
  std::uint64_t trace_events = 0;
  double fold_s = 0;  ///< time inside the digest observer
  std::uint64_t comm_events = 0;
  std::uint64_t hb_edges = 0;
  double analyze_s = 0;
};

Task<void> timed_kernel(mpi::Rank* r, npb::Kernel k, SimTime* finish) {
  co_await npb::run_kernel(*r, k, npb::Class::kB);
  *finish = r->sim().now();
}

/// Digest observer state: the same fold the campaign runner streams every
/// trace event through. Every kSampleEvery-th call is timed and scaled up,
/// so reading the clock adds little to the run it measures.
struct DigestProbe {
  static constexpr std::uint64_t kSampleEvery = 64;
  std::uint64_t digest = 0x6A09E667F3BCC908ULL;
  std::uint64_t events = 0;
  Clock::duration sampled{};
  double inside_s() const {
    return std::chrono::duration<double>(sampled).count() * kSampleEvery;
  }
};

CellRun run_cell(const Cell& c, Pass pass, SpanLog& spans) {
  const Deployment& dep = deployments()[c.deployment];
  const profiles::ExperimentConfig cfg = nas_config();
  CellRun out;
  out.name = c.name;
  const double cell0 = now_s();
  const std::uint64_t cell_id =
      spans.add({0, 0, "cell", c.name, pass_name(pass), cell0, cell0, {}});
  const auto span = [&](const char* name, double t0, double t1,
                        std::string extra = {}) {
    spans.add({0, cell_id, name, c.name, pass_name(pass), t0, t1,
               std::move(extra)});
  };

  mpi::CommLog log;
  std::optional<mpi::ScopedCommLog> log_scope;
  if (pass == Pass::kLint) log_scope.emplace(&log);
  DigestProbe probe;
  try {
    npb::validate_ranks(c.kernel, dep.nranks);
    Simulation sim;
    if (pass == Pass::kDigest) {
      Tracer& tracer = sim.tracer();
      for (std::uint8_t k = 0;
           k < static_cast<std::uint8_t>(TraceKind::kKindCount); ++k)
        tracer.enable(static_cast<TraceKind>(k));
      tracer.set_storage(false);
      tracer.set_observer([&probe](const TraceEvent& e) {
        if (probe.events++ % DigestProbe::kSampleEvery != 0) {
          harness::fold_trace_event(probe.digest, e);
          return;
        }
        const auto t = Clock::now();
        harness::fold_trace_event(probe.digest, e);
        probe.sampled += Clock::now() - t;
      });
    }
    const double g0 = now_s();
    topo::Grid grid(sim, dep.spec);
    const double g1 = now_s();
    auto faults = topo::install_faults(grid, cfg.faults);
    mpi::Job job(grid, mpi::block_placement(grid, dep.nranks), cfg.profile,
                 cfg.kernel);
    const double j1 = now_s();
    span("topo::Grid", g0, g1);
    span("mpi::Job", g1, j1);
    out.grid_s = g1 - g0;

    std::vector<SimTime> finish(static_cast<std::size_t>(dep.nranks), 0);
    for (int r = 0; r < dep.nranks; ++r)
      sim.spawn(timed_kernel(&job.rank(r), c.kernel,
                             &finish[static_cast<std::size_t>(r)]));
    reset_callback_stats();
    const double r0 = now_s();
    sim.run();
    const double r1 = now_s();
    out.run_s = r1 - r0;
    out.callbacks = callback_stats();
    if (pass == Pass::kDigest) {
      harness::fold_digest(probe.digest, sim.events_processed());
      harness::fold_digest(probe.digest, static_cast<std::uint64_t>(sim.now()));
      out.trace_events = probe.events;
      out.fold_s = probe.inside_s();
    }
    span("Simulation::run", r0, r1,
         "\"events\": " + jnum(sim.events_processed()));
    if (pass == Pass::kDigest)
      span("digest_observer", r0, r1,
           "\"calls\": " + jnum(out.trace_events) + ", \"inside_s\": " +
               jnum(out.fold_s));

    // As harness::run_npb reports a run that left processes blocked.
    out.timed_out = sim.live_processes() > 0;
    out.makespan = out.timed_out
                       ? sim.now()
                       : *std::max_element(finish.begin(), finish.end());
    out.traffic = job.traffic();
    out.events = sim.events_processed();
    out.peak_queue = sim.peak_queue_depth();
    out.solver = grid.network().solver_stats();
    // Job::channel creates a channel on first use, so the channels are
    // read only now that the run is over: unused pairs read as idle.
    const int streams = std::max(1, cfg.profile.wan_parallel_streams);
    for (int a = 0; a < dep.nranks; ++a)
      for (int b = 0; b < dep.nranks; ++b)
        for (int s = 0; a != b && s < streams; ++s) {
          const tcp::TcpChannel& ch = job.channel(a, b, s);
          if (ch.bytes_delivered() <= 0) continue;
          ++out.connections;
          out.losses += static_cast<std::uint64_t>(ch.loss_events());
          out.tcp_bytes += ch.bytes_delivered();
        }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  log_scope.reset();  // the Job has recorded its finalize events by now
  if (pass == Pass::kLint && out.error.empty()) {
    const double a0 = now_s();
    const simlint::LintSummary lint = simlint::analyze(log, 0);
    const double a1 = now_s();
    out.analyze_s = a1 - a0;
    out.comm_events = lint.events;
    out.hb_edges = lint.hb_edges;
    span("simlint::analyze", a0, a1,
         "\"comm_events\": " + jnum(lint.events) + ", \"hb_edges\": " +
             jnum(lint.hb_edges));
  }
  out.cell_s = now_s() - cell0;
  spans.close(cell_id, cell0 + out.cell_s);
  return out;
}

/// The traced runs of one cell, back to back: bare, digest, lint, bare.
/// Digest and lint costs are differences to the mean of the two bare runs,
/// which cancels a drift in host speed that is linear over the four.
struct CellPasses {
  CellRun bare;
  CellRun digest;
  CellRun lint;
  CellRun bare_again;
  std::string timed;   ///< outputs of the harness::run_npb path (NPB only)
  double timed_s = 0;  ///< its host seconds
  double timed_cpu_s = 0;
};

int run_traced(const Workload& w, std::uint64_t seed,
               const std::string& spans_path) {
  SpanLog spans;
  std::vector<std::string> outcomes;
  std::string header = "\"workload\": " + jstr(w.name) +
                       ", \"seed\": " + jnum(seed);

  // The harness layer. campaign_nas: the campaign path, with per-scenario
  // spans from ScenarioOutcome (whose wall_s excludes the lint analysis the
  // runner does after the scenario). NPB workloads: the timed run_npb path
  // of each cell, just before its traced runs; comparing the two checks the
  // composition and measures the tracing overhead.
  std::uint64_t sims = 0;
  double critical = 0;
  double harness_wall = 0;
  double harness_cpu = 0;
  int workers = 1;
  if (w.campaign) {
    workers = kCampaignJobs;
    const double t0 = now_s();
    const double c0 = cpu_s();
    const harness::CampaignReport report = harness::run_campaign(
        scenarios::paper_registry(), campaign_options(seed),
        [&spans](const harness::ScenarioOutcome& o) {
          const double end = now_s();
          spans.add({0, 0, "scenario", o.name, "campaign", end - o.wall_s, end,
                     "\"simulations\": " + jnum(o.simulations) +
                         ", \"trace_events\": " + jnum(o.trace_events) +
                         ", \"hb_edges\": " + jnum(o.hb_edges)});
        });
    harness_wall = now_s() - t0;
    harness_cpu = cpu_s() - c0;
    spans.add({0, 0, "harness::run_campaign", {}, "campaign", t0,
               t0 + harness_wall, {}});
    for (const harness::ScenarioOutcome& o : report.outcomes) {
      sims += o.simulations;
      critical = std::max(critical, o.wall_s);
      outcomes.push_back(scenario_outputs(o));
    }
  }

  std::vector<CellPasses> runs;
  for (const Cell& c : w.cells) {
    CellPasses r;
    if (!w.campaign) {
      const double t0 = now_s();
      const double c0 = cpu_s();
      r.timed = run_npb_cell(c);
      r.timed_s = now_s() - t0;
      r.timed_cpu_s = cpu_s() - c0;
      spans.add({0, 0, "harness::run_npb", c.name, "timed", t0,
                 t0 + r.timed_s, {}});
      ++sims;
      critical = std::max(critical, r.timed_s);
      harness_wall += r.timed_s;
      harness_cpu += r.timed_cpu_s;
    }
    r.bare = run_cell(c, Pass::kBare, spans);
    r.digest = run_cell(c, Pass::kDigest, spans);
    r.lint = run_cell(c, Pass::kLint, spans);
    r.bare_again = run_cell(c, Pass::kBare, spans);
    runs.push_back(std::move(r));
  }

  // Layer counters from the first bare run; digest and lint costs from
  // theirs, as differences to the bare runs of the same cell.
  double events = 0, run_s = 0, msgs = 0, ctrl = 0, payload = 0, coll = 0;
  double spills = 0, misses = 0, solves = 0, fast = 0, losses = 0;
  double conns = 0, tcp_bytes = 0, grid_s = 0;
  double trace_events = 0, fold_s = 0, record_s = 0;
  double comm_events = 0, hb_edges = 0, analyze_s = 0, lint_record_s = 0;
  double pass_wall[3] = {0, 0, 0};
  double timed_wall = 0;
  std::size_t peak_queue = 0, peak_comp = 0;
  std::vector<std::string> cells;
  std::vector<std::string> errors;
  for (const CellPasses& r : runs) {
    const CellRun& c = r.bare;
    const double bare_run_s = 0.5 * (c.run_s + r.bare_again.run_s);
    events += static_cast<double>(c.events);
    run_s += c.run_s;
    msgs += static_cast<double>(c.traffic.p2p_messages +
                                c.traffic.collective_messages);
    ctrl += static_cast<double>(c.traffic.control_messages);
    payload += c.traffic.p2p_bytes + c.traffic.collective_bytes;
    coll += static_cast<double>(c.traffic.collective_messages);
    spills += static_cast<double>(c.callbacks.heap_payloads);
    misses += static_cast<double>(c.callbacks.pool_misses);
    solves += static_cast<double>(c.solver.solves);
    fast += static_cast<double>(c.solver.fast_solves);
    losses += static_cast<double>(c.losses);
    conns += static_cast<double>(c.connections);
    tcp_bytes += c.tcp_bytes;
    grid_s += c.grid_s;
    peak_queue = std::max(peak_queue, c.peak_queue);
    peak_comp = std::max(peak_comp, c.solver.peak_component_flows);
    trace_events += static_cast<double>(r.digest.trace_events);
    fold_s += r.digest.fold_s;
    record_s += r.digest.run_s - bare_run_s - r.digest.fold_s;
    comm_events += static_cast<double>(r.lint.comm_events);
    hb_edges += static_cast<double>(r.lint.hb_edges);
    analyze_s += r.lint.analyze_s;
    lint_record_s += r.lint.run_s - bare_run_s;
    pass_wall[0] += c.cell_s;
    pass_wall[1] += r.digest.cell_s;
    pass_wall[2] += r.lint.cell_s;
    timed_wall += r.timed_s;

    const std::string outputs =
        c.error.empty() ? npb_outputs(c.name, c.makespan, c.timed_out,
                                      c.traffic)
                        : failed_cell(c.name, c.error);
    cells.push_back(outputs);
    if (!w.campaign && r.timed != outputs)
      errors.push_back(
          jstr(c.name + ": the composition differs from harness::run_npb"));
    // Tracing and lint recording are passive: all runs of a cell must
    // simulate exactly the same thing.
    for (const CellRun* p : {&r.digest, &r.lint, &r.bare_again}) {
      if (!p->error.empty())
        errors.push_back(jstr(c.name + ": " + p->error));
      else if (p->makespan != c.makespan || p->events != c.events)
        errors.push_back(jstr(c.name + ": the " +
                              (p == &r.digest ? "digest"
                               : p == &r.lint ? "lint"
                                              : "second bare") +
                              " run simulated differently"));
    }
  }

  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  JsonObject layers;
  layers.num("simcore.events", events)
      .num("simcore.events_per_msg", ratio(events, msgs))
      .num("simcore.events_per_s", ratio(events, run_s))
      .num("simcore.peak_queue_depth", static_cast<double>(peak_queue))
      .num("simcore.callback_spills", spills)
      .num("simcore.pool_misses", misses)
      .num("simcore.trace_record_s", record_s)
      .num("simnet.solves", solves)
      .num("simnet.fast_share", ratio(fast, solves))
      .num("simnet.peak_component_flows", static_cast<double>(peak_comp))
      .num("simtcp.loss_events", losses)
      .num("simtcp.connections", conns)
      .num("simtcp.bytes_delivered", tcp_bytes)
      .num("mpi.msgs", msgs)
      .num("mpi.ctrl_per_msg", ratio(ctrl, msgs))
      .num("mpi.payload_mb", payload / 1e6)
      .num("mpi.msgs_per_s", ratio(msgs, run_s))
      .num("collectives.msgs", coll)
      .num("topology.build_s", grid_s)
      .num("harness.simulations", static_cast<double>(sims))
      .num("harness.critical_path_s", critical)
      .num("harness.jobs_efficiency",
           ratio(harness_cpu, workers * harness_wall))
      .num("harness.trace_events", trace_events)
      .num("harness.digest_fold_s", fold_s)
      .num("simlint.comm_events", comm_events)
      .num("simlint.hb_edges", hb_edges)
      .num("simlint.record_s", lint_record_s)
      .num("simlint.analyze_s", analyze_s);

  header += ", \"pass_wall_s\": {\"bare\": " + jnum(pass_wall[0]) +
            ", \"digest\": " + jnum(pass_wall[1]) +
            ", \"lint\": " + jnum(pass_wall[2]) + "}";
  if (!w.campaign)
    header += ", \"timed_wall_s\": " + jnum(timed_wall) +
              ", \"trace_overhead_s\": " + jnum(pass_wall[0] - timed_wall);
  if (!spans_path.empty() && !spans.write(spans_path, header)) {
    std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
    return 1;
  }
  JsonObject out;
  out.str("workload", w.name)
      .str("mode", "traced")
      .raw("layers", layers.text())
      .raw("cells", jarray(w.campaign ? outcomes : cells))
      .raw("errors", jarray(errors));
  if (w.campaign) out.raw("composed_cells", jarray(cells));
  if (!w.campaign)
    out.num("trace_overhead_s", pass_wall[0] - timed_wall)
        .num("timed_wall_s", timed_wall);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: gridsim_perfbench --workload npb_lu|npb_bulk|"
               "campaign_nas --seed N "
               "[--seconds S | --setup-only | --traced --spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  std::uint64_t seed = 1;
  double seconds = 0;
  bool traced = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--spans" && has_value) {
      spans_path = argv[++i];
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else {
      return usage();
    }
  }
  const std::optional<Workload> w = find_workload(workload);
  if (!w) return usage();
  if (setup_only) return run_setup(*w);
  return traced ? run_traced(*w, seed, spans_path)
                : run_timed(*w, seed, seconds);
}
