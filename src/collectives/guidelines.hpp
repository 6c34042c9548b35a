// Self-verifying performance guidelines for the collective selector.
//
// In the spirit of Hunold et al., "Tuning MPI Collectives by Verifying
// Performance Guidelines": a selector that picks algorithms per size and
// topology must not contradict itself. We check two guideline families by
// running the real simulation for each (profile, topology, size) cell:
//
//  * composition guidelines — a specialised collective must not lose badly
//    to its own composition from simpler collectives:
//      Allreduce       <= c * (Reduce + Bcast)
//      Bcast           <= c * (Scatter + Allgather)
//      Reduce_scatter  <= c * (Reduce + Scatter)
//  * size-monotonicity guidelines — sending less must not take much
//    longer: T(op, s) <= c' * T(op, s_next) for consecutive probe sizes.
//
// Tolerances are deliberately generous: the WAN-oblivious profiles the
// paper measures are *legitimately* slow on the grid (that is the paper's
// point), and a guideline harness that flagged MPICH2's ring broadcast as
// a bug would be re-litigating Table 1 instead of catching selector
// mistakes. What the harness must catch is a self-contradictory rule table
// — e.g. the deliberately inverted cutoff of `misruled_selector()`, which
// runs the latency-bound scatter-ring for 1 kB payloads. With ranks
// interleaved across sites (GuidelineOptions::cyclic) the ring then pays a
// WAN bubble on ~every hop and a 1 kB broadcast costs 1.67x a 64 kB one —
// a "monotone-bcast" violation, well clear of the honest worst case 0.56.
//
// `gridsim coll --verify` and the coll/* catalog scenarios drive this
// sweep; write_coll_json emits the "gridsim-coll/1" report.
#pragma once

#include <string>
#include <vector>

#include "mpi/coll_rules.hpp"
#include "mpi/profile.hpp"
#include "simcore/simulation.hpp"
#include "simtcp/tcp.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::coll {

/// Composition slack: the specialised collective may cost up to this factor
/// of its composition before the guideline fires. Calibrated against the
/// shipped tables: the worst honest cell is MPICH-Madeleine's binomial-only
/// 1 MB broadcast on a cluster at ratio ~3.3 (a binomial tree moves each
/// byte log2(p) times where scatter+allgather moves it ~twice), so 4.5
/// leaves >35% headroom while still firing on selections that lose the
/// composition race outright.
constexpr double kCompositionTolerance = 4.5;
/// Monotonicity slack: a smaller payload may cost up to this factor of the
/// next larger probe. Shipped selections are monotone (worst honest ratio
/// ~0.56, on the cyclic grid); the misruled fixture reaches ~1.67 there.
constexpr double kMonotoneTolerance = 1.25;

struct GuidelineOptions {
  /// Probe payload sizes (bytes), ascending. Spans both sides of every
  /// cutoff in the shipped tables (12 kB bcast, 2 kB allreduce).
  std::vector<double> sizes = {1e3, 64e3, 1e6};
  int nranks = 16;
  /// Interleave ranks across sites (mpi::cyclic_placement) instead of the
  /// default block placement. This is the adversarial rank order the
  /// paper's introduction motivates: rank-ordered algorithms (the ring
  /// allgather) then cross the WAN on ~every step, which is what exposes a
  /// WAN-oblivious rule table.
  bool cyclic = false;
  double composition_tolerance = kCompositionTolerance;
  double monotone_tolerance = kMonotoneTolerance;
  /// Observed around every Simulation the sweep runs (campaign digesting).
  SimHooks hooks;
};

/// One evaluated guideline instance.
struct GuidelineCell {
  std::string guideline;  ///< "allreduce<=reduce+bcast", "monotone-bcast", ...
  std::string profile;
  std::string topology;  ///< "cluster", "grid", ...
  double bytes = 0;      ///< probe size (monotone: the smaller of the pair)
  double lhs_s = 0;      ///< measured seconds, left-hand side
  double rhs_s = 0;      ///< measured seconds, right-hand side
  double ratio = 0;      ///< lhs / rhs
  double tolerance = 0;
  bool violated = false;
  std::string detail;  ///< algorithms the selector chose for the cell
};

struct GuidelineReport {
  std::vector<GuidelineCell> cells;
  int violations() const {
    int n = 0;
    for (const auto& c : cells) n += c.violated ? 1 : 0;
    return n;
  }
};

/// Runs the guideline sweep for one profile on one deployment. Builds its
/// own Simulations (one per measured composition), so it composes with the
/// campaign's digest hooks via `opt.hooks`.
GuidelineReport verify_guidelines(const topo::GridSpec& spec,
                                  const std::string& topology_label,
                                  const mpi::ImplProfile& profile,
                                  const tcp::KernelTunables& kernel,
                                  const GuidelineOptions& opt = {});

/// One deployment of the guideline sweep.
struct GuidelineDeployment {
  const char* label;
  topo::GridSpec spec;
  bool cyclic;  ///< GuidelineOptions::cyclic
};

/// The deployments `gridsim coll --verify` and the coll/verify-<impl>
/// scenarios sweep: one 16-node cluster, the 8+8 grid, and the same grid
/// with ranks interleaved across sites (the adversarial order where
/// rank-ordered algorithms cross the WAN on ~every step).
std::vector<GuidelineDeployment> guideline_deployments();

/// The deliberately mis-ruled selector fixture: inverts the van de Geijn
/// cutoff so the latency-bound scatter-ring runs for small broadcasts and
/// binomial for large ones. On the cyclic-placement grid this must trip
/// the "monotone-bcast" guideline — the harness proving it can catch a bad
/// rule table.
mpi::CollRules misruled_selector();

/// Writes the "gridsim-coll/1" JSON report. Returns false on I/O failure.
bool write_coll_json(const std::string& path, const GuidelineReport& report);

}  // namespace gridsim::coll
