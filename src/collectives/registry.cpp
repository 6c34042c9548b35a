#include "collectives/registry.hpp"

#include <stdexcept>

#include "collectives/algorithms.hpp"

namespace gridsim::coll {

namespace {

template <typename Entry>
const Entry* find_in(const std::vector<Entry>& entries,
                     std::string_view name) {
  for (const Entry& e : entries)
    if (e.name == name) return &e;
  return nullptr;
}

}  // namespace

AlgorithmRegistry::AlgorithmRegistry() {
  bcast_ = {
      {"binomial",
       "log2(p) tree; WAN-oblivious but only one WAN crossing per subtree "
       "edge",
       false,
       &algo::bcast_binomial},
      {"scatter-ring",
       "van de Geijn: binomial scatter + rank-ordered ring allgather; the "
       "ring crosses the WAN ~every step",
       false,
       &algo::bcast_scatter_ring},
      {"hierarchical",
       "per-site scatter, parallel node-to-node WAN streams, intra-site "
       "ring reassembly (GridMPI)",
       true,
       &algo::bcast_hierarchical},
      {"pipeline",
       "segmented chain in rank order; crosses the WAN once on block "
       "placement",
       false,
       &algo::bcast_pipeline},
  };
  allreduce_ = {
      {"recursive-doubling",
       "log2(p) pairwise exchange rounds at full message size",
       false,
       &algo::allreduce_recursive_doubling},
      {"rabenseifner",
       "reduce-scatter by recursive halving + allgather by recursive "
       "doubling",
       false,
       &algo::allreduce_rabenseifner},
      {"hierarchical",
       "per-site reduce, site-leader exchange across the WAN, per-site "
       "bcast (GridMPI)",
       true,
       &algo::allreduce_hierarchical},
  };
  alltoall_ = {
      {"pairwise",
       "p-1 steps; step s pairs me with me+s (send) and me-s (recv)",
       false,
       &algo::alltoallv_pairwise},
      {"ring",
       "neighbour-only relaying, blocks forwarded hop by hop",
       false,
       &algo::alltoallv_ring},
      {"bruck",
       "log2(p) rounds of aggregated blocks; wins for tiny payloads",
       false,
       &algo::alltoallv_bruck},
  };
  barrier_ = {
      {"dissemination",
       "log2(p) rounds, every rank active each round",
       false,
       &algo::barrier_dissemination},
      {"tree",
       "binomial reduce + binomial broadcast of a token",
       false,
       &algo::barrier_tree},
  };
}

const AlgorithmRegistry& AlgorithmRegistry::instance() {
  static const AlgorithmRegistry registry;
  return registry;
}

const BcastAlgorithm* AlgorithmRegistry::find_bcast(
    std::string_view name) const {
  return find_in(bcast_, name);
}

const AllreduceAlgorithm* AlgorithmRegistry::find_allreduce(
    std::string_view name) const {
  return find_in(allreduce_, name);
}

const AlltoallAlgorithm* AlgorithmRegistry::find_alltoall(
    std::string_view name) const {
  return find_in(alltoall_, name);
}

const BarrierAlgorithm* AlgorithmRegistry::find_barrier(
    std::string_view name) const {
  return find_in(barrier_, name);
}

std::vector<std::string> AlgorithmRegistry::names(
    const std::string& op) const {
  std::vector<std::string> out;
  if (op == "bcast") {
    for (const auto& e : bcast_) out.push_back(e.name);
  } else if (op == "allreduce") {
    for (const auto& e : allreduce_) out.push_back(e.name);
  } else if (op == "alltoall") {
    for (const auto& e : alltoall_) out.push_back(e.name);
  } else if (op == "barrier") {
    for (const auto& e : barrier_) out.push_back(e.name);
  } else {
    throw std::invalid_argument("names: unknown operation '" + op + "'");
  }
  return out;
}

}  // namespace gridsim::coll
