// Declarative collective-selection rules.
//
// A `CollRule` names a registered collective algorithm (see
// collectives/registry.hpp) and the conditions under which the selector may
// use it: operation, message-size band, communicator-size band and topology
// scope. An `ImplProfile`'s `collectives` is one ordered list of rules, its
// decision table (Table 1's per-implementation choice): the first matching
// rule wins, and a call no rule matches is an error.
//
// The types are plain data on purpose: the mpi layer stores and transports
// rules, the collectives layer interprets them. This mirrors OpenMPI's
// decision tables (smpi_openmpi_selector.cpp in SimGrid reproduces them)
// where each (operation, size, communicator) cell names an algorithm.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace gridsim::mpi {

/// Operations the selector dispatches on. Rooted fan-in/fan-out collectives
/// (reduce, gather, scatter, ...) have a single registered algorithm each
/// and bypass the selector.
enum class CollOp {
  kBcast,
  kAllreduce,
  kAlltoall,
  kBarrier,
};

std::string to_string(CollOp op);

/// Topology predicate of a rule. "Site" is the grid notion: a cluster
/// behind one WAN uplink (topo::Grid::site_of).
enum class TopoScope {
  kAny,         ///< matches every deployment
  kSingleSite,  ///< only when all ranks share one site (no WAN crossing)
  kMultiSite,   ///< only when the job spans at least two sites
};

std::string to_string(TopoScope scope);

/// One decision rule: "for this operation, in this size/ranks band, on this
/// topology shape, use the algorithm registered under `algo`".
struct CollRule {
  CollOp op = CollOp::kBcast;
  /// Registry name of the algorithm ("binomial", "scatter-ring",
  /// "hierarchical", "pipeline", "recursive-doubling", "rabenseifner",
  /// "pairwise", "ring", "bruck", "dissemination", "tree").
  std::string algo;
  /// Message-size band, inclusive on both ends (bytes). For alltoall the
  /// size tested is the total send volume of the calling rank; barrier
  /// rules match any size.
  double min_bytes = 0;
  double max_bytes = std::numeric_limits<double>::infinity();
  /// Communicator-size band, inclusive on both ends.
  int min_ranks = 0;
  int max_ranks = std::numeric_limits<int>::max();
  TopoScope topo = TopoScope::kAny;

  bool operator==(const CollRule&) const = default;
};

/// Ordered rule list; first match wins.
using CollRules = std::vector<CollRule>;

/// A profile's decision table. Immutable and shared, so copying a profile
/// copies no rules (the catalog copies some 350 profiles as it registers
/// its scenarios).
using CollTable = std::shared_ptr<const CollRules>;

/// A new table: `ahead`, then the rules of `table`. First match wins, so
/// `ahead` decides only the calls it matches.
inline CollTable prepend(const CollRules& ahead, const CollRules& table) {
  auto out = std::make_shared<CollRules>(ahead);
  out->insert(out->end(), table.begin(), table.end());
  return out;
}

inline std::string to_string(CollOp op) {
  switch (op) {
    case CollOp::kBcast:
      return "bcast";
    case CollOp::kAllreduce:
      return "allreduce";
    case CollOp::kAlltoall:
      return "alltoall";
    case CollOp::kBarrier:
      return "barrier";
  }
  return "?";
}

inline std::string to_string(TopoScope scope) {
  switch (scope) {
    case TopoScope::kAny:
      return "any";
    case TopoScope::kSingleSite:
      return "single-site";
    case TopoScope::kMultiSite:
      return "multi-site";
  }
  return "?";
}

}  // namespace gridsim::mpi
