#include "simnet/maxmin.hpp"

#include <algorithm>
#include <cmath>

#include "simcore/check.hpp"

namespace gridsim::net::maxmin {

void BipartiteIndex::add(FlowState* f) {
  f->link_pos.resize(f->links.size());
  for (std::size_t i = 0; i < f->links.size(); ++i) {
    auto& list = flows_on_[static_cast<std::size_t>(f->links[i])];
    f->link_pos[i] = static_cast<std::uint32_t>(list.size());
    list.push_back(f);
  }
}

void BipartiteIndex::remove(FlowState* f) {
  for (std::size_t i = 0; i < f->links.size(); ++i) {
    const LinkId l = f->links[i];
    auto& list = flows_on_[static_cast<std::size_t>(l)];
    const std::uint32_t pos = f->link_pos[i];
    GRIDSIM_DCHECK(pos < list.size() && list[pos] == f,
                   "BipartiteIndex: corrupt back-reference on link %d", l);
    const std::uint32_t tail = static_cast<std::uint32_t>(list.size()) - 1;
    if (pos != tail) {
      FlowState* moved = list[tail];
      list[pos] = moved;
      // Repoint the moved flow's back-reference for *this* link. Routes
      // never repeat a link, so exactly one entry matches.
      for (std::size_t j = 0; j < moved->links.size(); ++j) {
        if (moved->links[j] == l && moved->link_pos[j] == tail) {
          moved->link_pos[j] = pos;
          break;
        }
      }
    }
    list.pop_back();
  }
  f->link_pos.clear();
}

void Solver::ensure_links(std::size_t n) {
  if (link_mark_.size() < n) {
    link_mark_.resize(n, 0);
    link_slot_.resize(n, 0);
  }
}

void Solver::collect_component(const BipartiteIndex& index,
                               const std::vector<LinkId>& seed_links,
                               FlowState* seed_flow) {
  ++epoch_;
  comp_flows_.clear();
  comp_links_.clear();
  bfs_stack_.clear();

  const auto visit_link = [this](LinkId l) {
    auto& mark = link_mark_[static_cast<std::size_t>(l)];
    if (mark == epoch_) return;
    mark = epoch_;
    comp_links_.push_back(l);
    bfs_stack_.push_back(l);
  };
  const auto visit_flow = [this, &visit_link](FlowState* f) {
    if (f->mark == epoch_) return;
    f->mark = epoch_;
    comp_flows_.push_back(f);
    for (LinkId l : f->links) visit_link(l);
  };

  if (seed_flow != nullptr) visit_flow(seed_flow);
  for (LinkId l : seed_links) visit_link(l);
  while (!bfs_stack_.empty()) {
    const LinkId l = bfs_stack_.back();
    bfs_stack_.pop_back();
    for (FlowState* f : index.flows_on(l)) visit_flow(f);
  }

  // The reference solver iterates links by ascending index and flows by
  // ascending order; replicate both so tie-breaks land identically.
  std::sort(comp_links_.begin(), comp_links_.end());
  std::sort(comp_flows_.begin(), comp_flows_.end(),
            [](const FlowState* a, const FlowState* b) {
              return a->order < b->order;
            });

  stats_.peak_component_flows =
      std::max(stats_.peak_component_flows, comp_flows_.size());
  stats_.peak_component_links =
      std::max(stats_.peak_component_links, comp_links_.size());
}

void Solver::remove_from_component(FlowState* f) {
  const auto it = std::find(comp_flows_.begin(), comp_flows_.end(), f);
  if (it != comp_flows_.end()) comp_flows_.erase(it);
}

bool Solver::component_is_uncontended() const {
  return comp_flows_.size() == 1;
}

void Solver::solve_uncontended(FlowState& f,
                               const std::vector<double>& capacity) {
  // One flow, no sharing: its fair share is the tightest crossed capacity,
  // clipped by its cap. The arithmetic mirrors the general loop exactly —
  // share = residual / 1 per link, cap freeze wins ties, slack = residual
  // after subtracting the frozen rate — so the result is bit-identical.
  double share = std::numeric_limits<double>::infinity();
  for (LinkId l : f.links)
    share = std::min(
        share, std::max(0.0, capacity[static_cast<std::size_t>(l)]) / 1);
  f.rate = f.rate_cap <= share ? f.rate_cap : share;
  double slack = std::numeric_limits<double>::infinity();
  for (LinkId l : f.links)
    slack = std::min(
        slack,
        std::max(0.0, capacity[static_cast<std::size_t>(l)] - f.rate));
  if (!std::isfinite(slack)) slack = 0.0;  // linkless flow
  f.achievable = f.rate + slack;
}

void Solver::solve_component(const std::vector<double>& capacity) {
  ++stats_.solves;
  if (comp_flows_.empty()) return;
  if (comp_flows_.size() == 1) {
    ++stats_.fast_solves;
    solve_uncontended(*comp_flows_.front(), capacity);
    return;
  }

  const std::size_t nl = comp_links_.size();
  residual_.resize(nl);
  nflows_.resize(nl);
  for (std::size_t i = 0; i < nl; ++i) {
    const LinkId l = comp_links_[i];
    link_slot_[static_cast<std::size_t>(l)] = static_cast<std::uint32_t>(i);
    residual_[i] = capacity[static_cast<std::size_t>(l)];
    nflows_[i] = 0;
  }

  unfrozen_.clear();
  for (FlowState* f : comp_flows_) {
    f->rate = 0;
    unfrozen_.push_back(f);
    for (LinkId l : f->links)
      ++nflows_[link_slot_[static_cast<std::size_t>(l)]];
  }

  // Progressive filling, restricted to the component. Identical structure
  // and arithmetic to solve_global_reference(): repeatedly freeze at the
  // tightest constraint — a link's equal share or an unfrozen flow's cap.
  while (!unfrozen_.empty()) {
    double best_link_share = std::numeric_limits<double>::infinity();
    std::ptrdiff_t best_link = -1;
    for (std::size_t i = 0; i < nl; ++i) {
      if (nflows_[i] <= 0) continue;
      const double share = std::max(0.0, residual_[i]) / nflows_[i];
      if (share < best_link_share) {
        best_link_share = share;
        best_link = static_cast<std::ptrdiff_t>(i);
      }
    }
    double best_cap = std::numeric_limits<double>::infinity();
    FlowState* capped = nullptr;
    for (FlowState* f : unfrozen_) {
      if (f->rate_cap < best_cap) {
        best_cap = f->rate_cap;
        capped = f;
      }
    }

    if (capped != nullptr && best_cap <= best_link_share) {
      capped->rate = best_cap;
      for (LinkId l : capped->links) {
        const std::size_t i = link_slot_[static_cast<std::size_t>(l)];
        residual_[i] -= best_cap;
        --nflows_[i];
      }
      unfrozen_.erase(std::find(unfrozen_.begin(), unfrozen_.end(), capped));
    } else if (best_link >= 0) {
      const LinkId bottleneck = comp_links_[static_cast<std::size_t>(best_link)];
      still_.clear();
      for (FlowState* f : unfrozen_) {
        const bool on_bottleneck =
            std::find(f->links.begin(), f->links.end(), bottleneck) !=
            f->links.end();
        if (on_bottleneck) {
          f->rate = best_link_share;
          for (LinkId l : f->links) {
            const std::size_t i = link_slot_[static_cast<std::size_t>(l)];
            residual_[i] -= best_link_share;
            --nflows_[i];
          }
        } else {
          still_.push_back(f);
        }
      }
      unfrozen_.swap(still_);
    } else {
      // Flows with no links (same-host loopback handled by caller); give
      // them their cap.
      for (FlowState* f : unfrozen_) f->rate = f->rate_cap;
      unfrozen_.clear();
    }
  }

  // Post-solve: achievable rate = own rate + slack at the tightest crossed
  // link (what the flow could claim if its window were unlimited).
  for (FlowState* f : comp_flows_) {
    double slack = std::numeric_limits<double>::infinity();
    for (LinkId l : f->links)
      slack = std::min(
          slack,
          std::max(0.0, residual_[link_slot_[static_cast<std::size_t>(l)]]));
    if (!std::isfinite(slack)) slack = 0.0;  // linkless flow
    f->achievable = f->rate + slack;
  }
}

void solve_global_reference(const std::vector<FlowState*>& flows_by_order,
                            std::size_t num_links,
                            const std::vector<double>& capacity) {
  // The pre-incremental solver, verbatim: progressive-filling max-min with
  // per-flow rate caps over the whole network, O(flows) route scans
  // included. Kept as the oracle the incremental solver is differentially
  // tested against — do not "optimise" it.
  const std::size_t nl = num_links;
  std::vector<double> residual(nl);
  std::vector<int> nflows(nl, 0);
  for (std::size_t i = 0; i < nl; ++i) residual[i] = capacity[i];

  std::vector<FlowState*> unfrozen;
  unfrozen.reserve(flows_by_order.size());
  for (FlowState* f : flows_by_order) {
    f->rate = 0;
    unfrozen.push_back(f);
    for (LinkId l : f->links) ++nflows[static_cast<std::size_t>(l)];
  }

  while (!unfrozen.empty()) {
    // Tightest link share.
    double best_link_share = std::numeric_limits<double>::infinity();
    LinkId best_link = -1;
    for (std::size_t i = 0; i < nl; ++i) {
      if (nflows[i] <= 0) continue;
      const double share = std::max(0.0, residual[i]) / nflows[i];
      if (share < best_link_share) {
        best_link_share = share;
        best_link = static_cast<LinkId>(i);
      }
    }
    // Tightest flow cap.
    double best_cap = std::numeric_limits<double>::infinity();
    FlowState* capped = nullptr;
    for (FlowState* f : unfrozen) {
      if (f->rate_cap < best_cap) {
        best_cap = f->rate_cap;
        capped = f;
      }
    }

    if (capped != nullptr && best_cap <= best_link_share) {
      capped->rate = best_cap;
      for (LinkId l : capped->links) {
        residual[static_cast<std::size_t>(l)] -= best_cap;
        --nflows[static_cast<std::size_t>(l)];
      }
      unfrozen.erase(std::find(unfrozen.begin(), unfrozen.end(), capped));
    } else if (best_link >= 0) {
      // Freeze every unfrozen flow crossing the bottleneck link.
      std::vector<FlowState*> still;
      still.reserve(unfrozen.size());
      for (FlowState* f : unfrozen) {
        const bool on_bottleneck =
            std::find(f->links.begin(), f->links.end(), best_link) !=
            f->links.end();
        if (on_bottleneck) {
          f->rate = best_link_share;
          for (LinkId l : f->links) {
            residual[static_cast<std::size_t>(l)] -= best_link_share;
            --nflows[static_cast<std::size_t>(l)];
          }
        } else {
          still.push_back(f);
        }
      }
      unfrozen.swap(still);
    } else {
      for (FlowState* f : unfrozen) f->rate = f->rate_cap;
      unfrozen.clear();
    }
  }

  for (FlowState* f : flows_by_order) {
    double slack = std::numeric_limits<double>::infinity();
    for (LinkId l : f->links)
      slack = std::min(slack, std::max(0.0, residual[static_cast<std::size_t>(l)]));
    if (!std::isfinite(slack)) slack = 0.0;  // linkless flow
    f->achievable = f->rate + slack;
  }
}

}  // namespace gridsim::net::maxmin
