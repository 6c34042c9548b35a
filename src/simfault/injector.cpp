#include "simfault/injector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "simcore/glob.hpp"

namespace gridsim::simfault {

FaultInjector::FaultInjector(
    net::Network& net, FaultPlan plan,
    std::vector<std::pair<net::HostId, net::HostId>> cross_pairs)
    : net_(net),
      sim_(net.sim()),
      plan_(plan),
      cross_pairs_(std::move(cross_pairs)),
      jitter_rng_(Rng(plan.seed).split(1)),
      episode_rng_(Rng(plan.seed).split(2)) {
  if (plan_.jitter.active()) {
    if (plan_.jitter.amplitude >= 1.0)
      throw std::invalid_argument("jitter amplitude must stay below 1");
    jitter_targets_ = match_links(plan_.jitter.link_glob);
    install_jitter();
  }
  if (plan_.flap.active()) {
    if (plan_.flap.down_capacity <= 0)
      throw std::invalid_argument("flap down capacity must stay positive");
    flap_targets_ = match_links(plan_.flap.link_glob);
    install_flap();
  }
  if (plan_.loss_episodes.active()) {
    if (plan_.loss_episodes.capacity_factor <= 0)
      throw std::invalid_argument("loss episode factor must stay positive");
    episode_targets_ = match_links(plan_.loss_episodes.link_glob);
    install_loss_episodes();
  }
  if (plan_.cross.active()) {
    if (cross_pairs_.empty())
      throw std::invalid_argument(
          "cross traffic requires candidate host pairs");
    install_cross_traffic();
  }
}

FaultInjector::LinkState& FaultInjector::state_of(net::LinkId id) {
  for (auto& st : links_)
    if (st->id == id) return *st;
  auto st = std::make_unique<LinkState>();
  st->id = id;
  st->nominal_capacity = net_.link(id).capacity;
  st->nominal_latency = net_.link(id).latency;
  links_.push_back(std::move(st));
  return *links_.back();
}

void FaultInjector::apply_capacity(LinkState& st) {
  double cap = st.nominal_capacity;
  if (st.active_dips > 0)
    cap = std::min(cap,
                   st.nominal_capacity * plan_.loss_episodes.capacity_factor);
  if (st.flapped_down) cap = std::min(cap, plan_.flap.down_capacity);
  if (net_.link(st.id).capacity != cap) net_.set_link_capacity(st.id, cap);
}

std::vector<net::LinkId> FaultInjector::match_links(
    const std::string& glob) const {
  std::vector<net::LinkId> out;
  for (net::LinkId l = 0; l < net_.link_count(); ++l)
    if (glob_match(glob, net_.link(l).name)) out.push_back(l);
  if (out.empty())
    throw std::invalid_argument("fault link glob '" + glob +
                                "' matches no link");
  return out;
}

void FaultInjector::record(TraceKind kind, const std::string& subject,
                           double value, const char* detail) {
  sim_.tracer().record(sim_.now(), kind, subject, value, detail);
}

// --- jitter -----------------------------------------------------------------

void FaultInjector::install_jitter() {
  for (net::LinkId l : jitter_targets_) state_of(l);  // snapshot nominals
  sim_.after(plan_.jitter.period, [this] { jitter_tick(); });
}

void FaultInjector::jitter_tick() {
  if (sim_.now() > plan_.jitter.stop_after) {
    // Settle matched links back to their nominal latency so post-horizon
    // behaviour is clean.
    for (net::LinkId l : jitter_targets_)
      net_.set_link_latency(l, state_of(l).nominal_latency);
    return;
  }
  for (net::LinkId l : jitter_targets_) {
    const LinkState& st = state_of(l);
    const double factor =
        1.0 + jitter_rng_.uniform(-plan_.jitter.amplitude,
                                  plan_.jitter.amplitude);
    const SimTime lat = std::max<SimTime>(
        0, from_seconds(to_seconds(st.nominal_latency) * factor));
    net_.set_link_latency(l, lat);
    ++jitter_redraws_;
    record(TraceKind::kFault, net_.link(l).name,
           static_cast<double>(lat), "jitter");
  }
  sim_.after(plan_.jitter.period, [this] { jitter_tick(); });
}

// --- flap -------------------------------------------------------------------

void FaultInjector::install_flap() {
  for (net::LinkId l : flap_targets_) state_of(l);
  const SimTime stride =
      plan_.flap.repeat_every > 0
          ? plan_.flap.repeat_every
          : plan_.flap.down_for + plan_.flap.down_at + 1;
  for (int r = 0; r < plan_.flap.repeats; ++r) {
    const SimTime down_at = plan_.flap.down_at + r * stride;
    sim_.at(down_at, [this] {
      for (net::LinkId l : flap_targets_) {
        LinkState& st = state_of(l);
        st.flapped_down = true;
        apply_capacity(st);
        ++flap_transitions_;
        record(TraceKind::kFault, net_.link(l).name, 0.0, "link-down");
      }
    });
    sim_.at(down_at + plan_.flap.down_for, [this] {
      for (net::LinkId l : flap_targets_) {
        LinkState& st = state_of(l);
        st.flapped_down = false;
        apply_capacity(st);
        ++flap_transitions_;
        record(TraceKind::kFault, net_.link(l).name, 1.0, "link-up");
      }
    });
  }
}

// --- loss episodes ----------------------------------------------------------

void FaultInjector::install_loss_episodes() {
  for (net::LinkId l : episode_targets_) state_of(l);
  schedule_next_episode(plan_.loss_episodes.stop_after);
}

void FaultInjector::schedule_next_episode(SimTime horizon) {
  // Exponential inter-arrival; 1 - uniform() is in (0, 1], so the log is
  // finite.
  const double gap_s =
      -std::log(1.0 - episode_rng_.uniform()) / plan_.loss_episodes.rate_per_s;
  const SimTime at = sim_.now() + from_seconds(gap_s);
  if (at > horizon) return;
  const std::size_t pick = static_cast<std::size_t>(episode_rng_.uniform_int(
      0, static_cast<std::int64_t>(episode_targets_.size()) - 1));
  const net::LinkId target = episode_targets_[pick];
  sim_.at(at, [this, target, horizon] {
    LinkState& st = state_of(target);
    ++st.active_dips;
    apply_capacity(st);
    ++episodes_;
    record(TraceKind::kFault, net_.link(target).name,
           plan_.loss_episodes.capacity_factor, "loss-episode");
    sim_.after(plan_.loss_episodes.duration, [this, target] {
      LinkState& inner = state_of(target);
      --inner.active_dips;
      apply_capacity(inner);
    });
    schedule_next_episode(horizon);
  });
}

// --- cross traffic ----------------------------------------------------------

void FaultInjector::install_cross_traffic() {
  cross_rngs_.reserve(static_cast<std::size_t>(plan_.cross.flows));
  Rng base(plan_.seed);
  for (int g = 0; g < plan_.cross.flows; ++g) {
    cross_rngs_.push_back(base.split(static_cast<std::uint64_t>(16 + g)));
    // Stagger starts inside the first gap window so the generators do not
    // fire in lockstep.
    const SimTime first = cross_rngs_.back().uniform_int(
        plan_.cross.min_gap, plan_.cross.max_gap);
    sim_.after(first, [this, g] { cross_burst(g); });
  }
}

void FaultInjector::cross_burst(int generator) {
  if (sim_.now() > plan_.cross.stop_after) return;
  Rng& rng = cross_rngs_[static_cast<std::size_t>(generator)];
  const auto& pair = cross_pairs_[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(cross_pairs_.size()) - 1))];
  const double burst =
      rng.uniform(plan_.cross.min_burst_bytes, plan_.cross.max_burst_bytes);
  const SimTime gap = rng.uniform_int(plan_.cross.min_gap, plan_.cross.max_gap);
  ++cross_bursts_;
  record(TraceKind::kFault,
         net_.host(pair.first).name + "->" + net_.host(pair.second).name,
         burst, "cross-traffic");
  net_.start_flow(pair.first, pair.second, burst, net::kUnlimitedRate,
                  [this, generator, gap] {
                    sim_.after(gap, [this, generator] {
                      cross_burst(generator);
                    });
                  });
}

}  // namespace gridsim::simfault
