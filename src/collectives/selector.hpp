// WAN-aware collective-algorithm selection.
//
// Every public collective entry point (collectives.cpp) asks the selector
// which registered algorithm to run for (operation, message size,
// communicator size, topology shape). Selection is declarative: the
// profile's decision table (`ImplProfile::collectives`, an ordered
// `mpi::CollRules` list) is scanned first-match-wins. Experiments override
// per-size/per-topology behaviour by putting rules ahead of the profile's
// (`profiles::ExperimentBuilder::selector`), without touching the
// algorithms.
//
// A call no rule matches throws std::invalid_argument: every shipped table
// ends each operation with an unbounded rule, so this only fires on a
// hand-written table with a gap.
#pragma once

#include "mpi/coll_rules.hpp"
#include "mpi/mpi.hpp"

namespace gridsim::coll {

/// Small-message cutoffs of Table 1's two-algorithm rows (bytes,
/// inclusive): at or below the cutoff the latency-optimal algorithm wins
/// (binomial bcast, recursive-doubling allreduce); above it the profile's
/// bandwidth algorithm takes over.
constexpr double kBcastSmallCutoff = 12 * 1024;
constexpr double kAllreduceSmallCutoff = 2 * 1024;

class Selector {
 public:
  /// The first rule of `rules` that decides (op, bytes, nranks, nsites).
  /// The returned reference lives as long as `rules`. Throws
  /// std::invalid_argument, naming the operation, if no rule matches.
  static const mpi::CollRule& pick(const mpi::CollRules& rules,
                                   mpi::CollOp op, double bytes, int nranks,
                                   int nsites);

  /// The rules of `rules` for `op`, in order — the decision list `pick`
  /// scans, for `gridsim coll --list` and tests.
  static mpi::CollRules effective_rules(const mpi::CollRules& rules,
                                        mpi::CollOp op);

  /// True if any rule for `op` discriminates on topology — only then does
  /// a collective call need to count sites before picking.
  static bool needs_sites(const mpi::CollRules& rules, mpi::CollOp op);

  /// Whether one rule matches the given call.
  static bool matches(const mpi::CollRule& rule, mpi::CollOp op, double bytes,
                      int nranks, int nsites);
};

/// Distinct sites hosting this job's ranks.
int site_count(mpi::Job& job);

}  // namespace gridsim::coll
