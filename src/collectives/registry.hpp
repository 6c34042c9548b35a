// The collective-algorithm registry: every algorithm the layer implements
// is a named, introspectable entry.
//
// Entries are typed per operation (a bcast algorithm and an allreduce
// algorithm have different signatures) and carry the metadata the selector
// and the `gridsim coll --list` table need: a name, a one-line description
// and whether the algorithm is WAN-aware (splits the communicator by site).
// The registry is immutable and process-wide — the algorithm set is the
// layer's API surface, pinned by tests/coll_registry_test.cpp.
//
// Names are what the rules of a profile's decision table
// (mpi/coll_rules.hpp) speak; collectives.cpp resolves each picked rule's
// name here and throws std::invalid_argument on a name no entry has.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "mpi/mpi.hpp"
#include "simcore/task.hpp"

namespace gridsim::coll {

struct BcastAlgorithm {
  std::string name;
  std::string description;
  bool wan_aware = false;
  Task<void> (*run)(mpi::Rank&, int root, double bytes, int tag) = nullptr;
};

struct AllreduceAlgorithm {
  std::string name;
  std::string description;
  bool wan_aware = false;
  Task<void> (*run)(mpi::Rank&, double bytes, int tag) = nullptr;
};

struct AlltoallAlgorithm {
  std::string name;
  std::string description;
  bool wan_aware = false;
  Task<void> (*run)(mpi::Rank&, const std::vector<double>& send_bytes,
                    int tag) = nullptr;
};

struct BarrierAlgorithm {
  std::string name;
  std::string description;
  bool wan_aware = false;
  Task<void> (*run)(mpi::Rank&, int tag) = nullptr;
};

class AlgorithmRegistry {
 public:
  /// The process-wide registry (immutable after construction).
  static const AlgorithmRegistry& instance();

  const std::vector<BcastAlgorithm>& bcast() const { return bcast_; }
  const std::vector<AllreduceAlgorithm>& allreduce() const {
    return allreduce_;
  }
  const std::vector<AlltoallAlgorithm>& alltoall() const { return alltoall_; }
  const std::vector<BarrierAlgorithm>& barrier() const { return barrier_; }

  /// Lookup by name; nullptr if absent.
  const BcastAlgorithm* find_bcast(std::string_view name) const;
  const AllreduceAlgorithm* find_allreduce(std::string_view name) const;
  const AlltoallAlgorithm* find_alltoall(std::string_view name) const;
  const BarrierAlgorithm* find_barrier(std::string_view name) const;

  /// Names of every registered algorithm for one operation
  /// ("bcast", "allreduce", "alltoall", "barrier"); throws on an unknown
  /// operation. Test parameterisation iterates these instead of hardcoding.
  std::vector<std::string> names(const std::string& op) const;

 private:
  AlgorithmRegistry();
  std::vector<BcastAlgorithm> bcast_;
  std::vector<AllreduceAlgorithm> allreduce_;
  std::vector<AlltoallAlgorithm> alltoall_;
  std::vector<BarrierAlgorithm> barrier_;
};

}  // namespace gridsim::coll
