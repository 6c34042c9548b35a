#include "collectives/selector.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "topology/grid5000.hpp"

namespace gridsim::coll {

using mpi::CollOp;
using mpi::CollRule;
using mpi::CollRules;

bool Selector::matches(const CollRule& r, CollOp op, double bytes, int nranks,
                       int nsites) {
  if (r.op != op) return false;
  if (bytes < r.min_bytes || bytes > r.max_bytes) return false;
  if (nranks < r.min_ranks || nranks > r.max_ranks) return false;
  switch (r.topo) {
    case mpi::TopoScope::kAny:
      return true;
    case mpi::TopoScope::kSingleSite:
      return nsites <= 1;
    case mpi::TopoScope::kMultiSite:
      return nsites >= 2;
  }
  return true;
}

const CollRule& Selector::pick(const CollRules& rules, CollOp op,
                               double bytes, int nranks, int nsites) {
  for (const CollRule& r : rules)
    if (matches(r, op, bytes, nranks, nsites)) return r;
  char where[96];
  std::snprintf(where, sizeof where, "%.0f B on %d ranks over %d site(s)",
                bytes, nranks, nsites);
  throw std::invalid_argument(mpi::to_string(op) +
                              ": no collective rule matches " + where);
}

CollRules Selector::effective_rules(const CollRules& rules, CollOp op) {
  CollRules out;
  for (const CollRule& r : rules)
    if (r.op == op) out.push_back(r);
  return out;
}

bool Selector::needs_sites(const CollRules& rules, CollOp op) {
  for (const CollRule& r : rules)
    if (r.op == op && r.topo != mpi::TopoScope::kAny) return true;
  return false;
}

int site_count(mpi::Job& job) {
  std::vector<int> seen;
  for (int rk = 0; rk < job.size(); ++rk) {
    const int site = job.grid().site_of(job.rank(rk).host());
    if (std::find(seen.begin(), seen.end(), site) == seen.end())
      seen.push_back(site);
  }
  return static_cast<int>(seen.size());
}

}  // namespace gridsim::coll
