// Progressive-filling max-min fairness solver, incremental edition.
//
// The allocator's job: given flows crossing fixed sets of links, assign each
// flow the max-min fair rate honouring per-flow rate caps. Historically the
// Network re-ran a global progressive-filling pass over *all* links and
// *all* flows on every mutation (flow arrival/departure, cap change, link
// capacity change) — O(bottlenecks x (links + flows)) per event, the wall
// between the simulator and 100k-rank / 1M-flow campaigns.
//
// This module supplies the pieces of the incremental scheme:
//
//  - `FlowState`: the solver-relevant slice of a flow (route, cap, rate),
//    embedded by the Network's Flow via inheritance.
//  - `BipartiteIndex`: persistent per-link flow lists with O(route) add and
//    swap-pop remove, replacing the O(flows x links) `std::find` scans.
//  - `Solver`: collects the connected component of links/flows reachable
//    from a mutation's dirty set and re-solves *only that component*; flows
//    outside it keep their frozen rates. Uncontended flows (no link shared
//    with any other flow) take a constant-time fast path, SimGrid-surf
//    style. A mutation that moves no rate collects its flow alone
//    (`collect_flow()`) and solves nothing.
//  - `solve_global_reference()`: the historical global pass, kept verbatim
//    as the differential-testing oracle (`GRIDSIM_NET_ORACLE`).
//
// Bit-exactness contract: progressive filling touches a component's
// residuals and caps only through that component's own flows, so the global
// pass decomposes into independent per-component passes with *identical*
// floating-point arithmetic. `solve_component()` replicates the reference
// loop's iteration order (links ascending, flows by stable order) and
// operations exactly; the differential churn suite and the campaign-digest
// oracle check in CI enforce that the two solvers agree to the last bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace gridsim::net::maxmin {

using LinkId = int;

inline constexpr double kUnlimited = std::numeric_limits<double>::infinity();

/// The solver-visible slice of a flow. `links` and `rate_cap` are inputs;
/// `rate` and `achievable` are outputs. The remaining fields are
/// bookkeeping owned by BipartiteIndex (`link_pos`) and Solver (`mark`).
struct FlowState {
  std::vector<LinkId> links;
  double rate_cap = kUnlimited;
  double rate = 0;
  double achievable = 0;

  /// Position of this flow inside each crossed link's flow list, parallel
  /// to `links`. Maintained by BipartiteIndex.
  std::vector<std::uint32_t> link_pos;
  /// Stable solve order (the Network's arrival counter): progressive
  /// filling breaks cap ties by the first flow in this order, so it must
  /// match the reference solver's iteration order for bit-identical
  /// results.
  std::uint64_t order = 0;
  /// Component-BFS epoch stamp (Solver-internal).
  std::uint64_t mark = 0;
};

/// Persistent flow<->link incidence lists: for every link, the flows that
/// cross it. Replaces the per-event `std::find` route scans. Routes must
/// not repeat a link (Network::add_route rejects duplicates): a repeated
/// link would double-count the flow in its own list.
class BipartiteIndex {
 public:
  /// Grows the per-link table; existing lists are untouched.
  void ensure_links(std::size_t n) {
    if (flows_on_.size() < n) flows_on_.resize(n);
  }

  /// O(route length): appends `f` to each crossed link's list.
  void add(FlowState* f);
  /// O(route length): swap-pop removal from each crossed link's list.
  void remove(FlowState* f);

  const std::vector<FlowState*>& flows_on(LinkId l) const {
    return flows_on_[static_cast<std::size_t>(l)];
  }

 private:
  std::vector<std::vector<FlowState*>> flows_on_;
};

/// Statistics perfbench's traced run (`simnet.*`) and tests read back.
struct SolverStats {
  std::uint64_t solves = 0;          ///< component re-solves run
  std::uint64_t fast_solves = 0;     ///< of which took the 1-flow fast path
  std::size_t peak_component_flows = 0;  ///< peak dirty-component flow count
  std::size_t peak_component_links = 0;  ///< peak dirty-component link count
};

/// Component-restricted progressive-filling solver. Scratch buffers persist
/// across solves so a steady-state re-solve performs no allocations.
class Solver {
 public:
  /// Grows the link-indexed scratch tables (call when links are added).
  void ensure_links(std::size_t n);

  /// Gathers the connected component of flows/links reachable from the
  /// dirty set: `seed_links` (the mutated link, or a mutated flow's route)
  /// plus an optional `seed_flow` (covers linkless flows). After this call
  /// `comp_flows()` is sorted by FlowState::order and `comp_links()`
  /// ascending — the orders the reference solver iterates in.
  void collect_component(const BipartiteIndex& index,
                         const std::vector<LinkId>& seed_links,
                         FlowState* seed_flow);

  /// Makes `f` alone the collected component, with no BFS and no sort:
  /// `comp_flows()` is `{f}` and `comp_links()` is empty. For a mutation
  /// that moves no rate (an unchanged cap), whose component needs neither
  /// a settle nor a solve. solve_component() must not follow: `f` may
  /// share its links.
  void collect_flow(FlowState* f) {
    ++epoch_;
    f->mark = epoch_;
    comp_flows_.assign(1, f);
    comp_links_.clear();
  }

  /// Drops one flow from the collected component (a departing flow is
  /// settled as part of its component but must not participate in the
  /// re-solve). The component stays valid: solving the remainder as one
  /// subset equals solving its split parts independently.
  void remove_from_component(FlowState* f);

  /// True when the collected component is a single flow none of whose
  /// links carry any other flow — the constant-time fast path applies.
  bool component_is_uncontended() const;

  /// True when `f` was gathered by the latest collect_component() or
  /// collect_flow().
  bool in_component(const FlowState* f) const { return f->mark == epoch_; }

  /// Re-solves the collected component. `capacity[l]` must give every
  /// link's capacity indexed by LinkId. Writes FlowState::rate/achievable
  /// for component flows only; everything else keeps its frozen rate.
  void solve_component(const std::vector<double>& capacity);

  const std::vector<FlowState*>& comp_flows() const { return comp_flows_; }
  const std::vector<LinkId>& comp_links() const { return comp_links_; }

  const SolverStats& stats() const { return stats_; }

 private:
  void solve_uncontended(FlowState& f, const std::vector<double>& capacity);

  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> link_mark_;   // epoch stamps, by LinkId
  std::vector<std::uint32_t> link_slot_;   // dense index, valid iff marked
  std::vector<LinkId> bfs_stack_;
  std::vector<FlowState*> comp_flows_;
  std::vector<LinkId> comp_links_;
  // Dense per-component scratch, parallel to comp_links_.
  std::vector<double> residual_;
  std::vector<int> nflows_;
  std::vector<FlowState*> unfrozen_;
  std::vector<FlowState*> still_;
  SolverStats stats_;
};

/// The historical global solver, kept verbatim (including its O(flows)
/// route scans) as the differential-testing oracle the incremental solver
/// is checked against.
/// `flows_by_order` must be sorted by FlowState::order; `capacity[l]` is
/// indexed by LinkId over all `num_links` links.
void solve_global_reference(const std::vector<FlowState*>& flows_by_order,
                            std::size_t num_links,
                            const std::vector<double>& capacity);

}  // namespace gridsim::net::maxmin
