// The four MPI implementations the paper compares (Table 1), encoded as
// ImplProfiles, plus a zero-overhead "raw TCP" baseline, and the tuning
// levels of Section 4.2 applied as configuration transforms.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mpi/profile.hpp"
#include "simfault/injector.hpp"
#include "simtcp/tcp.hpp"

namespace gridsim::profiles {

/// The paper's tuning stages.
enum class TuningLevel {
  kDefault,    ///< stock kernel, stock implementation parameters (Fig 3/5)
  kTcpTuned,   ///< 4 MB socket buffers via the per-impl knob (Fig 6)
  kFullyTuned, ///< + eager/rendez-vous thresholds raised (Fig 7, Table 5)
};

std::string to_string(TuningLevel level);

/// A profile + kernel pair ready to build a Job with, plus the fault
/// schedule to install on the deployment (inactive by default — see
/// simfault/injector.hpp and topo::install_faults).
struct ExperimentConfig {
  mpi::ImplProfile profile;
  tcp::KernelTunables kernel;
  simfault::FaultPlan faults;
};

/// MPICH2 1.0.5: the reference implementation. No grid awareness; kernel
/// auto-tuned buffers; 256 kB eager limit (MPIDI_CH3_EAGER_MAX_MSG_SIZE).
mpi::ImplProfile mpich2();

/// GridMPI 1.1: software pacing, buffers locked to the kernel initial size,
/// no rendez-vous by default (_YAMPI_RSIZE), WAN-aware collectives.
mpi::ImplProfile gridmpi();

/// MPICH-Madeleine (svn 2006-12-06): thread-based progression costs extra
/// CPU per message that hides under WAN latency; 128 kB eager limit
/// (DEFAULT_SWITCH); MPICH-1-era binomial collectives.
mpi::ImplProfile mpich_madeleine();

/// OpenMPI 1.1.4: explicit 128 kB setsockopt buffers (btl_tcp_sndbuf/rcvbuf),
/// 64 kB eager limit (btl_tcp_eager_limit, capped at 32 MB when tuned).
mpi::ImplProfile openmpi();

/// Raw TCP baseline: no MPI overheads, no rendez-vous, auto-tuned buffers.
mpi::ImplProfile raw_tcp();

/// MPICH-G2 (Karonis et al.): the paper's planned follow-up. Globus-layer
/// per-message costs, topology-aware collectives (WAN < LAN ordering), and
/// GridFTP-style parallel TCP streams for large WAN messages. Not part of
/// all_implementations() — the paper evaluates four implementations; this
/// profile backs the ext_mpich_g2 scenarios.
mpi::ImplProfile mpich_g2();

/// The four MPI implementations, in the paper's order.
std::vector<mpi::ImplProfile> all_implementations();

/// Applies a tuning level: selects the kernel tunables and adjusts the
/// per-implementation knobs exactly as Section 4.2 describes.
ExperimentConfig configure(mpi::ImplProfile base, TuningLevel level);

/// Fluent ExperimentConfig builder — the one construction API for
/// scenarios, perfbench, examples and tests:
///
///   auto cfg = experiment(mpich2()).tuning(TuningLevel::kTcpTuned);
///   auto abl = experiment(gridmpi()).pacing(false).label("GridMPI (no pacing)");
///   auto buf = experiment(openmpi())
///                  .tuning(TuningLevel::kTcpTuned)
///                  .setsockopt_bytes(512e3)    // override after tuning
///                  .eager_threshold(1e12);
///
/// Semantics: profile identity knobs (label, pacing, collective algorithms)
/// are applied to the base profile *before* `configure`, and ablation
/// overrides (eager threshold, socket buffers, WAN overhead, kernel
/// tunables) *after* it, so an override always wins over what the tuning
/// level would choose — matching how every hand-written bench mutated the
/// configure() result. `build()` is explicit; the implicit conversion lets
/// a builder expression be passed anywhere an ExperimentConfig is expected.
class ExperimentBuilder {
 public:
  explicit ExperimentBuilder(mpi::ImplProfile base) : base_(std::move(base)) {}

  ExperimentBuilder& tuning(TuningLevel level) {
    level_ = level;
    return *this;
  }
  /// Renames the profile (ablation rows: "GridMPI (pacing off)").
  ExperimentBuilder& label(std::string name) {
    base_.name = std::move(name);
    return *this;
  }
  ExperimentBuilder& pacing(bool on) {
    base_.pacing = on;
    return *this;
  }
  ExperimentBuilder& bcast(mpi::BcastAlgo algo) {
    base_.collectives.bcast = algo;
    return *this;
  }
  ExperimentBuilder& allreduce(mpi::AllreduceAlgo algo) {
    base_.collectives.allreduce = algo;
    return *this;
  }
  ExperimentBuilder& alltoall(mpi::AlltoallAlgo algo) {
    base_.collectives.alltoall = algo;
    return *this;
  }
  /// Name-based algorithm selection (the registry's vocabulary, aliases
  /// accepted): `.bcast_algo("vandegeijn")` is the modern spelling of
  /// `.bcast(mpi::BcastAlgo::kVanDeGeijn)`. Each name selects the enum
  /// *policy* — the named algorithm for large messages with the layer's
  /// usual small-message fallback — so digests match the enum spelling
  /// exactly. Throws std::invalid_argument on an unknown name.
  ExperimentBuilder& bcast_algo(std::string_view name);
  ExperimentBuilder& allreduce_algo(std::string_view name);
  ExperimentBuilder& alltoall_algo(std::string_view name);
  ExperimentBuilder& barrier_algo(std::string_view name);
  /// Replaces the profile's declarative selector rules, scanned
  /// first-match-wins before the enum-derived defaults
  /// (collectives/selector.hpp).
  ExperimentBuilder& selector(mpi::CollRules rules) {
    base_.collectives.selector = std::move(rules);
    return *this;
  }
  /// Replaces the kernel tunables the tuning level selected.
  ExperimentBuilder& kernel(tcp::KernelTunables tunables) {
    kernel_ = tunables;
    return *this;
  }
  ExperimentBuilder& congestion(tcp::CongestionAlgo algo) {
    congestion_ = algo;
    return *this;
  }
  /// Post-tuning overrides (win over the tuning level's choices).
  ExperimentBuilder& eager_threshold(double bytes) {
    eager_threshold_ = bytes;
    return *this;
  }
  ExperimentBuilder& setsockopt_bytes(double bytes) {
    setsockopt_bytes_ = bytes;
    return *this;
  }
  ExperimentBuilder& wan_extra_overhead(SimTime cost) {
    wan_extra_overhead_ = cost;
    return *this;
  }
  /// Fault knobs (applied after tuning, like the other overrides; they do
  /// not interact with the tuning level). `faults` replaces the whole plan;
  /// the granular setters edit one spec each and compose.
  ExperimentBuilder& faults(simfault::FaultPlan plan) {
    faults_ = std::move(plan);
    return *this;
  }
  ExperimentBuilder& jitter(simfault::JitterSpec spec) {
    faults_.jitter = std::move(spec);
    return *this;
  }
  ExperimentBuilder& flap(simfault::FlapSpec spec) {
    faults_.flap = std::move(spec);
    return *this;
  }
  ExperimentBuilder& loss_episodes(simfault::LossEpisodeSpec spec) {
    faults_.loss_episodes = std::move(spec);
    return *this;
  }
  ExperimentBuilder& cross_traffic(simfault::CrossTrafficSpec spec) {
    faults_.cross = std::move(spec);
    return *this;
  }
  ExperimentBuilder& fault_seed(std::uint64_t seed) {
    faults_.seed = seed;
    return *this;
  }

  ExperimentConfig build() const;
  // NOLINTNEXTLINE(google-explicit-constructor): terse call sites by design.
  operator ExperimentConfig() const { return build(); }

 private:
  mpi::ImplProfile base_;
  TuningLevel level_ = TuningLevel::kDefault;
  std::optional<tcp::KernelTunables> kernel_;
  std::optional<tcp::CongestionAlgo> congestion_;
  std::optional<double> eager_threshold_;
  std::optional<double> setsockopt_bytes_;
  std::optional<SimTime> wan_extra_overhead_;
  simfault::FaultPlan faults_;
};

/// Entry point of the fluent API: `experiment(mpich2()).tuning(...)`.
inline ExperimentBuilder experiment(mpi::ImplProfile base) {
  return ExperimentBuilder(std::move(base));
}

}  // namespace gridsim::profiles
