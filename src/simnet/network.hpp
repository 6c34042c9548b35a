// Flow-level (fluid) network model.
//
// The network is a set of hosts joined by point-to-point links; a *flow* is
// an in-progress byte transfer along a fixed route. Whenever the set of
// flows (or a flow's rate cap, or a link's capacity) changes, bandwidth is
// re-allocated with progressive-filling max-min fairness, honouring each
// flow's rate cap (the TCP layer caps a flow at window/RTT). Flow
// completions are scheduled from the allocation and invalidated by a
// generation counter when a re-solve moves them.
//
// Flows live in a slot map of recycled `Flow` objects: a `FlowId` is the
// slot's generation in the high 32 bits and the slot index in the low 32,
// so a lookup is one index and one compare, and the id of a finished flow
// never names the flow that later reuses its slot. A recycled flow keeps
// the capacity of its route vectors, so starting a flow allocates nothing
// once the network is warm.
//
// The re-solve is *incremental* (simnet/maxmin.hpp): a persistent
// flow<->link bipartite index tracks which flows cross which links, each
// mutation seeds a dirty set, and only the connected component of
// links/flows reachable from it is settled and re-solved — flows outside
// the component keep their frozen rates, and an uncontended flow takes a
// constant-time fast path. A rate-cap update that leaves the cap unchanged
// (most TCP ticks) moves no rate — the solve is a pure function of flows,
// caps and capacities — so it logs the touch and settles and reschedules
// only its own flow: the rest of its component is left as flows outside a
// mutated component always are. The pre-incremental global solver is
// retained as a differential-testing oracle behind the `GRIDSIM_NET_ORACLE`
// knob (environment variable, or `set_solver_mode()`); both solvers produce
// bit-identical rates, a guarantee enforced by the differential churn
// suite and the campaign-digest oracle check in CI.
//
// This is the same modelling level as SimGrid's network model: accurate for
// the first-order effects the paper studies (window-limited throughput on
// long fat networks, fair sharing of a WAN bottleneck, transfer times),
// while cheap enough to simulate full NPB runs.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "simcore/callback.hpp"
#include "simcore/simulation.hpp"
#include "simcore/time.hpp"
#include "simnet/maxmin.hpp"

namespace gridsim::net {

using HostId = int;
using LinkId = int;
/// Slot generation << 32 | slot index; generations start at 1, so no
/// valid id is 0.
using FlowId = std::uint64_t;

inline constexpr FlowId kInvalidFlow = 0;
inline constexpr double kUnlimitedRate =
    std::numeric_limits<double>::infinity();

struct Host {
  std::string name;
  /// Relative compute speed (1.0 = reference node). Used by application
  /// models to scale compute phases; the network layer ignores it.
  double cpu_speed = 1.0;
};

struct Link {
  std::string name;
  double capacity = 0;   ///< bytes per second
  SimTime latency = 0;   ///< one-way propagation delay
  double queue_bytes = 0;  ///< router/NIC buffer; bounds loss-free bursts
  // Lifetime statistics.
  double bytes_carried = 0;
};

struct Route {
  std::vector<LinkId> links;
  SimTime latency = 0;  ///< sum of link latencies
};

/// Snapshot of one flow's allocation, used by the TCP layer.
struct FlowInfo {
  double rate = 0;             ///< currently allocated rate (B/s)
  double achievable_rate = 0;  ///< rate if this flow's cap were removed
  double remaining = 0;        ///< bytes not yet transferred
};

/// Which max-min solver drives the allocation. The incremental solver is
/// the default; the global-resolve oracle is the pre-incremental code path
/// kept for differential testing.
enum class SolverMode {
  kIncremental,
  kGlobalOracle,
};

class Network {
 public:
  explicit Network(Simulation& sim);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- topology construction -------------------------------------------
  HostId add_host(std::string name, double cpu_speed = 1.0);
  LinkId add_link(std::string name, double capacity_bytes_per_sec,
                  SimTime latency, double queue_bytes);
  /// Registers the path src -> dst (and, if `symmetric`, dst -> src with the
  /// links reversed). Re-registering overwrites in place, so a `Route&`
  /// obtained from route() stays valid for the network's lifetime and sees
  /// later changes. A route must not cross the same link twice (the
  /// bipartite index keeps one entry per crossing).
  void add_route(HostId src, HostId dst, std::vector<LinkId> links,
                 bool symmetric = true);

  int host_count() const { return static_cast<int>(hosts_.size()); }
  int link_count() const { return static_cast<int>(links_.size()); }
  /// First link whose name matches exactly; -1 if absent.
  LinkId find_link(const std::string& name) const {
    for (std::size_t i = 0; i < links_.size(); ++i)
      if (links_[i].name == name) return static_cast<LinkId>(i);
    return -1;
  }
  const Host& host(HostId h) const { return hosts_.at(static_cast<size_t>(h)); }
  const Link& link(LinkId l) const { return links_.at(static_cast<size_t>(l)); }
  bool has_route(HostId src, HostId dst) const;
  const Route& route(HostId src, HostId dst) const;
  SimTime path_latency(HostId src, HostId dst) const {
    return route(src, dst).latency;
  }
  /// Smallest link capacity along the route (B/s).
  double path_capacity(HostId src, HostId dst) const {
    return path_capacity(route(src, dst));
  }
  double path_capacity(const Route& r) const;
  /// Smallest queue along the route (bytes); the burst budget for TCP.
  double path_queue(HostId src, HostId dst) const;

  // --- flows -------------------------------------------------------------
  /// Changes a link's capacity at runtime (degradation, failure drill, or
  /// recovery); active flows are re-allocated immediately. The capacity
  /// must stay positive — model a failed link as a tiny capacity rather
  /// than zero so control traffic still trickles and deadlock is visible.
  void set_link_capacity(LinkId l, double capacity_bytes_per_sec);

  /// Changes a link's propagation latency at runtime (WAN jitter / delay
  /// variation injection). Every registered route crossing the link has its
  /// cached latency sum recomputed; in-flight fluid transfers pick the new
  /// value up at delivery time because propagation is applied by the caller
  /// when the last byte leaves the pipe.
  void set_link_latency(LinkId l, SimTime latency);

  /// Starts transferring `bytes` from src to dst. `on_complete` fires (via
  /// the event queue) when the last byte has left the sender-side fluid
  /// pipe; propagation latency is applied by the caller (the TCP layer).
  FlowId start_flow(HostId src, HostId dst, double bytes, double rate_cap,
                    Callback on_complete) {
    return start_flow(route(src, dst), bytes, rate_cap,
                      std::move(on_complete));
  }
  /// Same, along a route obtained from route() (no lookup).
  FlowId start_flow(const Route& route, double bytes, double rate_cap,
                    Callback on_complete);
  /// Updates a flow's rate cap (TCP window changes). No-op on unknown ids.
  /// An unchanged cap still counts as a mutation (a global settle point,
  /// completion checks, done re-posts), but the incremental solver neither
  /// collects nor solves the component: it settles and reschedules only
  /// this flow.
  void set_rate_cap(FlowId id, double rate_cap);
  /// Aborts a flow without firing its completion. No-op on unknown ids.
  void cancel_flow(FlowId id);
  bool flow_active(FlowId id) const { return find_flow(id) != nullptr; }
  /// All zero for unknown ids. `remaining` is quantized at the network's
  /// last settle point (the most recent mutation or completion check
  /// anywhere) — the exact value the global-resolve oracle reports.
  /// Settling is lazy per flow, so this projects from the flow's own
  /// settle anchor without mutating it.
  FlowInfo flow_info(FlowId id) const;

  int active_flow_count() const { return active_flows_; }
  /// Total allocated rate crossing `l` right now (<= capacity). Reads the
  /// persistent per-link flow list: O(flows on l), not O(flows x links).
  double link_utilization(LinkId l) const;

  // --- solver mode -------------------------------------------------------
  SolverMode solver_mode() const { return mode_; }
  /// Switches between the incremental solver and the global oracle. Only
  /// legal while no flows are active (mid-run switching would mix settle
  /// disciplines). The initial mode comes from the GRIDSIM_NET_ORACLE
  /// environment variable: unset, empty, "0", "false" or "off" select the
  /// incremental solver, anything else the oracle.
  void set_solver_mode(SolverMode mode);
  /// Incremental-solver statistics: re-solve count, fast-path hits and the
  /// peak dirty-component size (perfbench's traced run reports these).
  const maxmin::SolverStats& solver_stats() const { return solver_.stats(); }

  Simulation& sim() { return sim_; }

 private:
  struct Flow : maxmin::FlowState {
    FlowId id = kInvalidFlow;  ///< kInvalidFlow while the slot is free
    std::uint32_t generation = 0;  ///< high half of the slot's next id
    double remaining = 0;
    Callback on_complete;
    std::uint64_t completion_gen = 0;
    SimTime scheduled_eta = kSimTimeNever;  ///< earliest pending check
    SimTime last_settle = 0;  ///< per-flow settle anchor (lazy settle)
    /// First entry of `touch_times_` not yet applied to this flow.
    std::size_t settle_idx = 0;
  };

  /// Oracle mode: applies elapsed time to all flows' remaining-byte
  /// counters (the historical eager settle).
  void settle_all();
  /// Incremental mode: settles one flow to `sim_.now()` — only flows whose
  /// rate is about to change are settled, so quiet flows cost nothing.
  void settle_flow(Flow& f);
  /// `remaining` as the oracle's eager settle would report it, without
  /// mutating the flow's settle anchor.
  double projected_remaining(const Flow& f) const;

  /// Incremental mode: records `sim_.now()` as a global settle point (the
  /// instant the oracle's eager settle would run) and bumps `last_touch_`.
  /// Compacts `touch_times_` when it outgrows the active-flow population.
  void register_touch();

  /// Collects + settles the dirty component seeded by `seed_links` /
  /// `seed_flow` (incremental), or settles everything (oracle). Every
  /// mutation calls this before touching solver inputs.
  void begin_mutation(const std::vector<LinkId>& seed_links, Flow* seed_flow);
  /// Re-solves (component or global, by mode) and (re)schedules
  /// completions for every flow whose allocation was recomputed.
  void solve_and_schedule();
  /// The oracle path: global progressive filling over all links and flows.
  void solve_global_reference();
  /// Post-solve scheduling for the incremental path: completion checks for
  /// component flows, merged with the bulk re-post of done-pending flows.
  void schedule_after_component_solve();

  /// The live flow `id` names, or null (unknown, finished or cancelled).
  Flow* find_flow(FlowId id) const {
    const auto slot = static_cast<std::uint32_t>(id);
    if (id == kInvalidFlow || slot >= flow_slots_.size()) return nullptr;
    Flow* f = flow_slots_[slot].get();
    return f->id == id ? f : nullptr;
  }
  /// Takes a free slot (or a new one) and gives it a fresh id.
  Flow& acquire_flow();
  /// Drops a finished or cancelled flow from the index and frees its slot.
  void release_flow(Flow& f);

  void schedule_completion(Flow& f);
  void finish_flow(Flow& f);
  void forget_done_pending(FlowId id);

  Simulation& sim_;
  std::vector<Host> hosts_;
  std::vector<Link> links_;
  /// Capacities mirrored by LinkId for the solver (kept in sync by
  /// add_link / set_link_capacity).
  std::vector<double> link_capacity_;
  std::unordered_map<std::uint64_t, Route> routes_;  // key = src<<32 | dst
  /// The flow slot map. Flows are heap objects so their addresses (held by
  /// the index and the solver) survive the table's growth.
  std::vector<std::unique_ptr<Flow>> flow_slots_;
  std::vector<std::uint32_t> free_flow_slots_;
  int active_flows_ = 0;
  /// Arrival counter: progressive filling breaks cap ties by it.
  std::uint64_t next_order_ = 1;
  maxmin::BipartiteIndex index_;
  maxmin::Solver solver_;
  /// Flows whose completion post is in flight (remaining hit zero, the
  /// finish callback not yet drained). The historical solver re-posted
  /// every such flow on *every* re-solve — each re-post invalidates the
  /// previous one via the generation counter, deferring the finish past
  /// same-timestamp events inserted in between — so the incremental solver
  /// must re-post them too (the bulk completion path), or completion order
  /// and the engine's event count drift from the oracle.
  std::vector<FlowId> done_pending_;
  std::vector<Flow*> sched_scratch_;
  /// Completion-check etas, lazily invalidated (an entry is live iff the
  /// flow still exists with that exact scheduled_eta). The oracle's global
  /// settle can push a flow in a *disjoint* component across the done
  /// threshold when its check is due at the current instant — symmetric
  /// transfers finishing at the same quantized eta make this common — and
  /// then posts its completion from the post-solve loop. Draining due
  /// entries at each solve finds those flows in O(log n) amortized without
  /// touching quiet ones.
  std::priority_queue<std::pair<SimTime, FlowId>,
                      std::vector<std::pair<SimTime, FlowId>>, std::greater<>>
      eta_heap_;
  /// Global settle points since the last compaction (incremental mode),
  /// strictly increasing. The oracle settles *every* flow at *every* touch,
  /// so its remaining-byte counters are folds of per-segment subtractions;
  /// a lazily settled flow replays exactly those segments (each flow keeps
  /// its resume position in Flow::settle_idx) so `remaining` stays
  /// bit-identical to the oracle — one fused subtraction over the whole
  /// quiet interval differs in ulps, which a `ceil` at a nanosecond
  /// boundary turns into a 1 ns completion shift. Replay is segment-exact
  /// regardless of when it runs, so the vector is compacted (settle all,
  /// clear) whenever it outgrows the flow population.
  std::vector<SimTime> touch_times_;
  SolverMode mode_;
  /// When the oracle's global settle would last have run: every mutation
  /// and completion check bumps it (lazy settle quantizes reads here).
  SimTime last_touch_ = 0;
  SimTime last_settle_ = 0;  ///< oracle-mode global settle anchor

  static std::uint64_t route_key(HostId src, HostId dst) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(dst);
  }
};

/// Convenience: converts megabits per second to bytes per second.
constexpr double mbps(double v) { return v * 1e6 / 8.0; }
/// Convenience: converts gigabits per second to bytes per second.
constexpr double gbps(double v) { return v * 1e9 / 8.0; }

}  // namespace gridsim::net
