#include "collectives/collectives.hpp"

#include <algorithm>
#include <stdexcept>

#include "collectives/algorithms.hpp"
#include "collectives/registry.hpp"
#include "collectives/selector.hpp"
#include "simcore/check.hpp"

namespace gridsim::coll {

namespace {

using mpi::CollOp;
using mpi::Rank;

/// The job's collective decision table.
const mpi::CollRules& table_of(Rank& r) {
  const mpi::CollTable& table = r.job().profile().collectives;
  GRIDSIM_DCHECK(table != nullptr, "profile has no collective table");
  return *table;
}

/// Sites are only counted when a rule actually discriminates on topology —
/// the shipped tables never do, so their calls stay free of the O(p) site
/// scan.
int sites_for(Rank& r, const mpi::CollRules& rules, CollOp op) {
  return Selector::needs_sites(rules, op) ? site_count(r.job()) : 1;
}

[[noreturn]] void unknown_algorithm(const char* op, const std::string& name) {
  throw std::invalid_argument(std::string(op) +
                              ": selector rule names unknown algorithm '" +
                              name + "'");
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points: take the collective tag, consult the selector,
// dispatch through the registry entry. Tag acquisition order (before any
// early return) is part of the pinned event sequence — do not reorder.
// ---------------------------------------------------------------------------

Task<void> barrier(Rank& r) {
  const int p = r.size();
  const int tag = r.next_collective_tag();
  if (p <= 1) co_return;
  const mpi::CollRules& rules = table_of(r);
  const mpi::CollRule& rule = Selector::pick(
      rules, CollOp::kBarrier, 0, p, sites_for(r, rules, CollOp::kBarrier));
  const BarrierAlgorithm* a =
      AlgorithmRegistry::instance().find_barrier(rule.algo);
  if (a == nullptr) unknown_algorithm("barrier", rule.algo);
  co_await a->run(r, tag);
}

Task<void> bcast(Rank& r, int root, double bytes) {
  const int tag = r.next_collective_tag();
  const mpi::CollRules& rules = table_of(r);
  if (r.size() <= 1) co_return;
  const mpi::CollRule& rule =
      Selector::pick(rules, CollOp::kBcast, bytes, r.size(),
                     sites_for(r, rules, CollOp::kBcast));
  const BcastAlgorithm* a = AlgorithmRegistry::instance().find_bcast(rule.algo);
  if (a == nullptr) unknown_algorithm("bcast", rule.algo);
  co_await a->run(r, root, bytes, tag);
}

Task<void> reduce(Rank& r, int root, double bytes) {
  const int tag = r.next_collective_tag();
  co_await algo::group_reduce_binomial(r, algo::full_group(r), root, bytes,
                                       tag);
}

Task<void> allreduce(Rank& r, double bytes) {
  const int tag = r.next_collective_tag();
  const mpi::CollRules& rules = table_of(r);
  if (r.size() <= 1) co_return;
  const mpi::CollRule& rule =
      Selector::pick(rules, CollOp::kAllreduce, bytes, r.size(),
                     sites_for(r, rules, CollOp::kAllreduce));
  const AllreduceAlgorithm* a =
      AlgorithmRegistry::instance().find_allreduce(rule.algo);
  if (a == nullptr) unknown_algorithm("allreduce", rule.algo);
  co_await a->run(r, bytes, tag);
}

Task<void> gather(Rank& r, int root, double bytes_per_rank) {
  // Binomial gather: subtree payloads aggregate toward the root.
  const int tag = r.next_collective_tag();
  const int p = r.size();
  if (p <= 1) co_return;
  const int me = r.rank();
  const int rel = (me - root + p) % p;
  int held = 1;  // blocks currently held (own block)
  int mask = 1;
  while (mask < p) {
    if (rel & mask) {
      const int dst = ((rel - mask) + root) % p;
      co_await r.send(dst, held * bytes_per_rank, tag);
      break;
    }
    if (rel + mask < p) {
      const int src = ((rel + mask) + root) % p;
      (void)co_await r.recv(src, tag);
      held += std::min(mask, p - (rel + mask));
    }
    mask <<= 1;
  }
}

Task<void> scatter(Rank& r, int root, double bytes_per_rank) {
  const int tag = r.next_collective_tag();
  const int p = r.size();
  if (p <= 1) co_return;
  std::vector<int> group = algo::full_group(r);
  co_await algo::group_scatter_for_bcast(r, group, root, bytes_per_rank * p,
                                         tag);
}

Task<void> allgather(Rank& r, double bytes_per_rank) {
  const int tag = r.next_collective_tag();
  co_await algo::group_ring_allgather(r, algo::full_group(r), bytes_per_rank,
                                      r.size() - 1, tag);
}

Task<void> alltoall(Rank& r, double bytes_per_pair) {
  std::vector<double> v(static_cast<size_t>(r.size()), bytes_per_pair);
  v[static_cast<size_t>(r.rank())] = 0;
  co_await alltoallv(r, v);
}

Task<void> alltoallv(Rank& r, const std::vector<double>& send_bytes) {
  const int tag = r.next_collective_tag();
  const int p = r.size();
  if (static_cast<int>(send_bytes.size()) != p)
    throw std::invalid_argument("alltoallv: send_bytes.size() != size()");
  if (p <= 1) co_return;
  const mpi::CollRules& rules = table_of(r);
  // The size a rule matches on is the caller's total send volume.
  double total = 0;
  for (double b : send_bytes) total += b;
  const mpi::CollRule& rule =
      Selector::pick(rules, CollOp::kAlltoall, total, p,
                     sites_for(r, rules, CollOp::kAlltoall));
  const AlltoallAlgorithm* a =
      AlgorithmRegistry::instance().find_alltoall(rule.algo);
  if (a == nullptr) unknown_algorithm("alltoall", rule.algo);
  co_await a->run(r, send_bytes, tag);
}

Task<void> gatherv(Rank& r, int root, const std::vector<double>& bytes) {
  const int tag = r.next_collective_tag();
  const int p = r.size();
  if (static_cast<int>(bytes.size()) != p)
    throw std::invalid_argument("gatherv: bytes.size() != size()");
  if (p <= 1) co_return;
  if (r.rank() == root) {
    std::vector<mpi::Request> reqs;
    for (int s = 0; s < p; ++s)
      if (s != root) reqs.push_back(r.irecv(s, tag));
    co_await r.wait_all(std::move(reqs));
  } else {
    co_await r.send(root, bytes[static_cast<size_t>(r.rank())], tag);
  }
}

Task<void> scatterv(Rank& r, int root, const std::vector<double>& bytes) {
  const int tag = r.next_collective_tag();
  const int p = r.size();
  if (static_cast<int>(bytes.size()) != p)
    throw std::invalid_argument("scatterv: bytes.size() != size()");
  if (p <= 1) co_return;
  if (r.rank() == root) {
    std::vector<mpi::Request> reqs;
    for (int d = 0; d < p; ++d)
      if (d != root)
        reqs.push_back(r.isend(d, bytes[static_cast<size_t>(d)], tag));
    co_await r.wait_all(std::move(reqs));
  } else {
    (void)co_await r.recv(root, tag);
  }
}

Task<void> reduce_scatter(Rank& r, double bytes) {
  const int tag = r.next_collective_tag();
  const int p = r.size();
  if (p <= 1) co_return;
  const std::vector<int> group = algo::full_group(r);
  if (!algo::is_pow2(p)) {
    // Fallback: full reduce to 0, then scatter the blocks.
    co_await algo::group_reduce_binomial(r, group, 0, bytes, tag);
    co_await algo::group_scatter_for_bcast(r, group, 0, bytes, tag);
    co_return;
  }
  // Recursive halving (the first phase of Rabenseifner's allreduce).
  const int me = algo::index_in(group, r.rank());
  double size = bytes / 2;
  for (int dist = p / 2; dist >= 1; dist /= 2) {
    const int partner = group[static_cast<size_t>(me ^ dist)];
    mpi::Request req = r.isend(partner, size, tag);
    (void)co_await r.recv(partner, tag);
    (void)co_await r.wait(req);
    co_await algo::reduce_compute(r, size);
    size /= 2;
  }
}

}  // namespace gridsim::coll
