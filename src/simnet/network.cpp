#include "simnet/network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "simcore/check.hpp"

namespace gridsim::net {

namespace {
constexpr double kByteEpsilon = 1e-6;  // below this a flow counts as done
constexpr double kMinRate = 1e-3;      // B/s floor to avoid infinite etas
// Completion checks are never scheduled further out than this. A flow
// crawling at a fault-collapsed rate would otherwise park an event at its
// astronomically distant eta; since stale events cannot be removed from the
// queue, that event would keep the simulation alive (and its clock running)
// long after every process finished. Clamped checks simply re-settle and
// re-arm, so genuinely slow flows still complete. No healthy flow's eta
// comes close to this horizon (the longest clean transfers are seconds).
constexpr gridsim::SimTime kMaxCompletionCheck = gridsim::seconds(60);

SolverMode initial_solver_mode() {
  const char* v = std::getenv("GRIDSIM_NET_ORACLE");
  if (v == nullptr || *v == '\0' || std::strcmp(v, "0") == 0 ||
      std::strcmp(v, "false") == 0 || std::strcmp(v, "off") == 0)
    return SolverMode::kIncremental;
  return SolverMode::kGlobalOracle;
}
}  // namespace

Network::Network(Simulation& sim) : sim_(sim), mode_(initial_solver_mode()) {}

HostId Network::add_host(std::string name, double cpu_speed) {
  hosts_.push_back(Host{std::move(name), cpu_speed});
  return static_cast<HostId>(hosts_.size()) - 1;
}

LinkId Network::add_link(std::string name, double capacity_bytes_per_sec,
                         SimTime latency, double queue_bytes) {
  if (capacity_bytes_per_sec <= 0)
    throw std::invalid_argument("link capacity must be positive");
  Link l;
  l.name = std::move(name);
  l.capacity = capacity_bytes_per_sec;
  l.latency = latency;
  l.queue_bytes = queue_bytes;
  links_.push_back(std::move(l));
  link_capacity_.push_back(capacity_bytes_per_sec);
  index_.ensure_links(links_.size());
  solver_.ensure_links(links_.size());
  return static_cast<LinkId>(links_.size()) - 1;
}

void Network::add_route(HostId src, HostId dst, std::vector<LinkId> links,
                        bool symmetric) {
  // The bipartite index keeps one (flow, position) entry per link crossing,
  // so a route visiting the same link twice would corrupt its swap-pop
  // bookkeeping — and means a modelling error anyway.
  for (std::size_t i = 0; i < links.size(); ++i)
    for (std::size_t j = i + 1; j < links.size(); ++j)
      if (links[i] == links[j])
        throw std::invalid_argument("route crosses link '" +
                                    link(links[i]).name + "' twice");
  Route r;
  r.links = links;
  for (LinkId l : links) r.latency += link(l).latency;
  routes_[route_key(src, dst)] = r;
  if (symmetric) {
    Route back;
    back.links.assign(links.rbegin(), links.rend());
    back.latency = r.latency;
    routes_[route_key(dst, src)] = std::move(back);
  }
}

bool Network::has_route(HostId src, HostId dst) const {
  return routes_.count(route_key(src, dst)) != 0;
}

const Route& Network::route(HostId src, HostId dst) const {
  auto it = routes_.find(route_key(src, dst));
  if (it == routes_.end())
    throw std::out_of_range("no route between " +
                            hosts_.at(static_cast<size_t>(src)).name + " and " +
                            hosts_.at(static_cast<size_t>(dst)).name);
  return it->second;
}

double Network::path_capacity(const Route& r) const {
  double cap = kUnlimitedRate;
  for (LinkId l : r.links) cap = std::min(cap, link(l).capacity);
  return cap;
}

double Network::path_queue(HostId src, HostId dst) const {
  const Route& r = route(src, dst);
  double q = std::numeric_limits<double>::infinity();
  for (LinkId l : r.links) q = std::min(q, link(l).queue_bytes);
  return std::isfinite(q) ? q : 0.0;
}

void Network::set_link_capacity(LinkId l, double capacity_bytes_per_sec) {
  if (capacity_bytes_per_sec <= 0)
    throw std::invalid_argument("link capacity must stay positive");
  const std::vector<LinkId> seed{l};
  begin_mutation(seed, nullptr);
  links_.at(static_cast<size_t>(l)).capacity = capacity_bytes_per_sec;
  link_capacity_[static_cast<size_t>(l)] = capacity_bytes_per_sec;
  solve_and_schedule();
}

void Network::set_link_latency(LinkId l, SimTime latency) {
  if (latency < 0) throw std::invalid_argument("link latency must be >= 0");
  Link& link_ref = links_.at(static_cast<size_t>(l));
  if (link_ref.latency == latency) return;
  link_ref.latency = latency;
  for (auto& [key, r] : routes_) {
    if (std::find(r.links.begin(), r.links.end(), l) == r.links.end())
      continue;
    SimTime sum = 0;
    for (LinkId rl : r.links) sum += links_[static_cast<size_t>(rl)].latency;
    r.latency = sum;
  }
}

FlowId Network::start_flow(const Route& r, double bytes, double rate_cap,
                           Callback on_complete) {
  if (bytes < 0) throw std::invalid_argument("negative flow size");
  Flow& f = acquire_flow();
  f.links = r.links;  // reuses the recycled flow's capacity
  f.rate_cap = std::max(rate_cap, kMinRate);
  f.rate = 0;
  f.achievable = 0;
  f.order = next_order_++;
  f.mark = 0;
  f.remaining = bytes;
  f.on_complete = std::move(on_complete);
  f.completion_gen = 0;
  f.scheduled_eta = kSimTimeNever;
  f.last_settle = sim_.now();
  f.settle_idx = touch_times_.size();
  index_.add(&f);
  begin_mutation(f.links, &f);
  solve_and_schedule();
  return f.id;
}

Network::Flow& Network::acquire_flow() {
  std::uint32_t slot;
  if (free_flow_slots_.empty()) {
    slot = static_cast<std::uint32_t>(flow_slots_.size());
    flow_slots_.push_back(std::make_unique<Flow>());
  } else {
    slot = free_flow_slots_.back();
    free_flow_slots_.pop_back();
  }
  Flow& f = *flow_slots_[slot];
  if (++f.generation == 0) f.generation = 1;  // keep every id non-zero
  f.id = (static_cast<FlowId>(f.generation) << 32) | slot;
  ++active_flows_;
  return f;
}

void Network::release_flow(Flow& f) {
  index_.remove(&f);
  if (mode_ == SolverMode::kIncremental) solver_.remove_from_component(&f);
  forget_done_pending(f.id);
  free_flow_slots_.push_back(static_cast<std::uint32_t>(f.id));
  f.id = kInvalidFlow;
  f.on_complete = nullptr;
  --active_flows_;
}

void Network::set_rate_cap(FlowId id, double rate_cap) {
  Flow* f = find_flow(id);
  if (f == nullptr) return;
  const double cap = std::max(rate_cap, kMinRate);
  if (mode_ == SolverMode::kIncremental && cap == f->rate_cap) {
    // Progressive filling is a pure function of flows, caps and capacities,
    // and none of them moved, so no rate moves anywhere. The touch is still
    // logged, so every later lazy settle replays the oracle's segments. The
    // rest of the component is then in the position of flows outside a
    // mutated component: an unchanged eta inserts no event, and a flow due
    // at this instant is found by the eta drain. The flow itself is settled
    // only to keep its touch-log replay short.
    register_touch();
    solver_.collect_flow(f);
    settle_flow(*f);
    schedule_after_component_solve();
    return;
  }
  begin_mutation(f->links, f);
  f->rate_cap = cap;
  solve_and_schedule();
}

void Network::cancel_flow(FlowId id) {
  Flow* f = find_flow(id);
  if (f == nullptr) return;
  // The dying flow is settled with its component (its final byte chunk must
  // land in bytes_carried) but is excluded from the re-solve.
  begin_mutation(f->links, f);
  release_flow(*f);
  solve_and_schedule();
}

FlowInfo Network::flow_info(FlowId id) const {
  const Flow* f = find_flow(id);
  if (f == nullptr) return {};
  return FlowInfo{f->rate, f->achievable, projected_remaining(*f)};
}

double Network::link_utilization(LinkId l) const {
  double sum = 0;
  for (const maxmin::FlowState* f : index_.flows_on(l)) sum += f->rate;
  return sum;
}

void Network::set_solver_mode(SolverMode mode) {
  GRIDSIM_CHECK(active_flows_ == 0,
                "solver mode can only change while no flows are active");
  mode_ = mode;
  done_pending_.clear();
  eta_heap_ = {};
  touch_times_.clear();
}

void Network::register_touch() {
  const SimTime now = sim_.now();
  last_touch_ = now;
  if (touch_times_.empty() || touch_times_.back() != now)
    touch_times_.push_back(now);
  // Compact once the touch log outgrows the flow population: settling
  // everything replays each pending (flow, segment) pair — work the lazy
  // scheme owes anyway — after which the log can restart empty.
  if (touch_times_.size() >= 4096 &&
      touch_times_.size() >= 4 * static_cast<std::size_t>(active_flows_)) {
    for (const auto& f : flow_slots_)
      if (f->id != kInvalidFlow) settle_flow(*f);
    touch_times_.clear();
    for (const auto& f : flow_slots_) f->settle_idx = 0;
  }
}

double Network::projected_remaining(const Flow& f) const {
  // `remaining` is anchored at the flow's own last settle; reads are
  // quantized at the network-wide last touch, which is exactly where the
  // eager-settle oracle would have settled everything. Replays the global
  // settle points in between (see touch_times_) without mutating the flow.
  if (last_touch_ == f.last_settle) return f.remaining;
  double rem = f.remaining;
  SimTime prev = f.last_settle;
  for (std::size_t i = f.settle_idx; i < touch_times_.size(); ++i) {
    const SimTime t = touch_times_[i];
    if (t <= prev) continue;
    if (t > last_touch_) break;
    rem = std::max(0.0, rem - f.rate * to_seconds(t - prev));
    prev = t;
  }
  if (last_touch_ > prev)
    rem = std::max(0.0, rem - f.rate * to_seconds(last_touch_ - prev));
  return rem;
}

void Network::settle_flow(Flow& f) {
  const SimTime now = sim_.now();
  if (now == f.last_settle) {
    f.settle_idx = touch_times_.size();
    return;
  }
  // Replay the oracle's settle points one segment at a time: the same
  // max(0, rem - rate*dt) fold the eager settle performs, so `remaining`
  // stays bit-identical to the oracle's (a single fused subtraction over
  // the whole quiet interval differs in ulps).
  double rem = f.remaining;
  double moved_total = 0;
  SimTime prev = f.last_settle;
  const std::size_t n = touch_times_.size();
  for (std::size_t i = f.settle_idx; i < n; ++i) {
    const SimTime t = touch_times_[i];
    if (t <= prev) continue;
    if (t > now) break;
    const double moved = f.rate * to_seconds(t - prev);
    rem = std::max(0.0, rem - moved);
    moved_total += moved;
    prev = t;
  }
  if (now > prev) {
    const double moved = f.rate * to_seconds(now - prev);
    rem = std::max(0.0, rem - moved);
    moved_total += moved;
  }
  f.settle_idx = n;
  f.last_settle = now;
  f.remaining = rem;
  for (LinkId l : f.links)
    links_[static_cast<size_t>(l)].bytes_carried += moved_total;
}

void Network::settle_all() {
  const SimTime now = sim_.now();
  last_touch_ = now;
  if (now == last_settle_) return;
  const double dt = to_seconds(now - last_settle_);
  last_settle_ = now;
  for (const auto& slot : flow_slots_) {
    Flow& f = *slot;
    if (f.id == kInvalidFlow) continue;
    const double moved = f.rate * dt;
    f.remaining = std::max(0.0, f.remaining - moved);
    f.last_settle = now;
    for (LinkId l : f.links)
      links_[static_cast<size_t>(l)].bytes_carried += moved;
  }
}

void Network::begin_mutation(const std::vector<LinkId>& seed_links,
                             Flow* seed_flow) {
  if (mode_ == SolverMode::kGlobalOracle) {
    settle_all();
    return;
  }
  register_touch();
  solver_.collect_component(index_, seed_links, seed_flow);
  // Settle before the re-solve overwrites rates: bytes moved so far were
  // moved at the *old* rates.
  for (maxmin::FlowState* fs : solver_.comp_flows())
    settle_flow(*static_cast<Flow*>(fs));
}

void Network::solve_and_schedule() {
  if (mode_ == SolverMode::kGlobalOracle) {
    solve_global_reference();
    return;
  }
  solver_.solve_component(link_capacity_);
  schedule_after_component_solve();
}

void Network::schedule_after_component_solve() {
#if defined(GRIDSIM_ENABLE_DCHECKS)
  // Per-link conservation, checked incrementally: the just-solved component
  // must not oversubscribe any of its links (frozen outside flows kept
  // their rates, so the whole link sum is live).
  for (LinkId l : solver_.comp_links()) {
    double sum = 0;
    for (const maxmin::FlowState* f : index_.flows_on(l)) sum += f->rate;
    GRIDSIM_DCHECK(
        approx_le(sum, link_capacity_[static_cast<std::size_t>(l)]),
        "link '%s' oversubscribed: %.17g > %.17g",
        links_[static_cast<std::size_t>(l)].name.c_str(), sum,
        link_capacity_[static_cast<std::size_t>(l)]);
  }
#endif
  // Bulk completion path. The oracle's post-solve loop visits *every* flow
  // in arrival order; besides the component, it inserts queue events for two
  // kinds of outside flows: done-pending ones (each visit re-posts,
  // invalidating the previous post via the generation counter) and flows
  // its global settle just pushed across the done threshold — only
  // possible when their completion check is due at this exact instant.
  // Merge all three sets in the oracle's order; every other flow
  // contributes no insertion there (the eta guard returns), so skipping
  // them changes nothing. After an unchanged cap the "component" is the
  // ticking flow alone, so this merge also carries the rest of the
  // component that flow shares links with: its done re-posts and its due
  // flows come from here, in the same order.
  sched_scratch_.clear();
  for (maxmin::FlowState* fs : solver_.comp_flows())
    sched_scratch_.push_back(static_cast<Flow*>(fs));
  const SimTime now = sim_.now();
  while (!eta_heap_.empty() && eta_heap_.top().first <= now) {
    const auto [eta, id] = eta_heap_.top();
    eta_heap_.pop();
    Flow* fp = find_flow(id);
    if (fp == nullptr || fp->scheduled_eta != eta) continue;
    Flow& f = *fp;
    if (solver_.in_component(&f)) continue;
    settle_flow(f);
    if (f.remaining > kByteEpsilon) continue;  // re-arms from its own check
    if (std::find(done_pending_.begin(), done_pending_.end(), id) !=
        done_pending_.end())
      continue;
    if (std::find(sched_scratch_.begin(), sched_scratch_.end(), &f) ==
        sched_scratch_.end())
      sched_scratch_.push_back(&f);
  }
  for (FlowId id : done_pending_) {
    Flow* f = find_flow(id);
    assert(f != nullptr);
    if (!solver_.in_component(f)) sched_scratch_.push_back(f);
  }
  if (sched_scratch_.size() > solver_.comp_flows().size())
    std::sort(sched_scratch_.begin(), sched_scratch_.end(),
              [](const Flow* a, const Flow* b) { return a->order < b->order; });
  for (Flow* f : sched_scratch_) schedule_completion(*f);
}

void Network::solve_global_reference() {
  // Iterate in arrival order, the order the solver breaks ties by (slot
  // order depends on which slots happened to be free).
  std::vector<maxmin::FlowState*> by_order;
  by_order.reserve(static_cast<std::size_t>(active_flows_));
  for (const auto& f : flow_slots_)
    if (f->id != kInvalidFlow) by_order.push_back(f.get());
  std::sort(by_order.begin(), by_order.end(),
            [](const maxmin::FlowState* a, const maxmin::FlowState* b) {
              return a->order < b->order;
            });
  maxmin::solve_global_reference(by_order, links_.size(), link_capacity_);
  for (maxmin::FlowState* f : by_order)
    schedule_completion(*static_cast<Flow*>(f));
}

void Network::schedule_completion(Flow& f) {
  const FlowId id = f.id;
  if (f.remaining <= kByteEpsilon) {
    const std::uint64_t gen = ++f.completion_gen;
    if (mode_ == SolverMode::kIncremental &&
        std::find(done_pending_.begin(), done_pending_.end(), id) ==
            done_pending_.end())
      done_pending_.push_back(id);
    sim_.post([this, id, gen] {
      Flow* live = find_flow(id);
      if (live != nullptr && live->completion_gen == gen) finish_flow(*live);
    });
    return;
  }
  const double rate = std::max(f.rate, kMinRate);
  const SimTime dur = from_seconds(f.remaining / rate);
  const SimTime eta = sim_.now() + std::min(dur, kMaxCompletionCheck);
  // Only schedule if this beats the already-pending check: keeps the event
  // horizon monotonically shrinking per flow (rate drops are handled by the
  // earlier event firing, re-settling and rescheduling).
  if (eta >= f.scheduled_eta) return;
  const std::uint64_t gen = ++f.completion_gen;
  f.scheduled_eta = eta;
  if (mode_ == SolverMode::kIncremental) eta_heap_.emplace(eta, id);
  sim_.at(eta, [this, id, gen] {
    Flow* live = find_flow(id);
    if (live == nullptr || live->completion_gen != gen) return;
    if (mode_ == SolverMode::kGlobalOracle) {
      settle_all();
    } else {
      // Only this flow's remaining is inspected; everyone else's rate is
      // untouched, so nothing forces them to settle here.
      register_touch();
      settle_flow(*live);
    }
    if (live->remaining <= kByteEpsilon) {
      finish_flow(*live);
    } else {
      live->scheduled_eta = kSimTimeNever;
      schedule_completion(*live);
    }
  });
}

void Network::finish_flow(Flow& f) {
  begin_mutation(f.links, &f);
  assert(f.remaining <= 1.0 + 1e-9 * f.rate);
  Callback cb = std::move(f.on_complete);
  release_flow(f);
  solve_and_schedule();
  if (cb) cb();
}

void Network::forget_done_pending(FlowId id) {
  auto it = std::find(done_pending_.begin(), done_pending_.end(), id);
  if (it != done_pending_.end()) done_pending_.erase(it);
}

}  // namespace gridsim::net
