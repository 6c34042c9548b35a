#include "apps/ray2mesh.hpp"

#include <algorithm>
#include <cassert>

#include "collectives/collectives.hpp"
#include "mpi/mpi.hpp"
#include "simcore/simulation.hpp"

namespace gridsim::apps {

namespace {

using mpi::Rank;

constexpr int kTagRequest = 1;
constexpr int kTagSet = 2;
constexpr int kTagStop = 3;

struct Shared {
  const Ray2MeshConfig* app;
  std::vector<int> sets_per_slave;
  SimTime compute_done = 0;
  SimTime merge_done = 0;
  SimTime total_done = 0;
};

Task<void> master_body(Rank& r, Shared* sh) {
  const int slaves = r.size() - 1;
  int sets_left = sh->app->total_rays / sh->app->rays_per_set;
  int stopped = 0;
  co_await r.compute(sh->app->init_write_seconds / 2);
  while (stopped < slaves) {
    const mpi::RecvInfo req = co_await r.recv(mpi::kAnySource, kTagRequest);
    if (sets_left > 0) {
      --sets_left;
      ++sh->sets_per_slave[static_cast<size_t>(req.source - 1)];
      co_await r.send(req.source, sh->app->set_bytes, kTagSet);
    } else {
      ++stopped;
      co_await r.send(req.source, 8, kTagStop);
    }
  }
  sh->compute_done = r.sim().now();
  // Merge phase: the master participates in the submesh exchange.
  co_await coll::barrier(r);
  co_await coll::alltoall(r, sh->app->merge_traffic_bytes / (r.size() - 1));
  co_await r.compute(sh->app->merge_compute_seconds);
  co_await coll::barrier(r);
  sh->merge_done = r.sim().now();
  co_await r.compute(sh->app->init_write_seconds / 2);
  sh->total_done = r.sim().now();
}

Task<void> slave_body(Rank& r, const Ray2MeshConfig* app) {
  const double per_set = app->rays_per_set * app->ray_compute_seconds;
  while (true) {
    co_await r.send(0, app->request_bytes, kTagRequest);
    const mpi::RecvInfo got = co_await r.recv(0, mpi::kAnyTag);
    if (got.tag == kTagStop) break;
    co_await r.compute(per_set);
  }
  co_await coll::barrier(r);
  co_await coll::alltoall(r, app->merge_traffic_bytes / (r.size() - 1));
  co_await r.compute(app->merge_compute_seconds);
  co_await coll::barrier(r);
}

}  // namespace

Ray2MeshResult run_ray2mesh(const topo::GridSpec& spec, int master_site,
                            const profiles::ExperimentConfig& cfg,
                            const Ray2MeshConfig& app) {
  Simulation sim;
  topo::Grid grid(sim, spec);
  auto faults = topo::install_faults(grid, cfg.faults);
  // Rank 0: master, co-located with the first slave of its cluster.
  std::vector<net::HostId> placement;
  placement.push_back(grid.node(master_site, 0));
  for (int s = 0; s < grid.site_count(); ++s)
    for (int n = 0; n < grid.nodes_at(s); ++n)
      placement.push_back(grid.node(s, n));
  mpi::Job job(grid, placement, cfg.profile, cfg.kernel);

  Shared sh;
  sh.app = &app;
  sh.sets_per_slave.assign(static_cast<size_t>(job.size() - 1), 0);
  sim.spawn(master_body(job.rank(0), &sh));
  for (int s = 1; s < job.size(); ++s)
    sim.spawn(slave_body(job.rank(s), &app));
  sim.run();

  Ray2MeshResult result;
  result.rays_per_slave.reserve(sh.sets_per_slave.size());
  for (int sets : sh.sets_per_slave)
    result.rays_per_slave.push_back(sets * app.rays_per_set);
  result.rays_per_site.assign(static_cast<size_t>(grid.site_count()), 0);
  for (int s = 1; s < job.size(); ++s) {
    const int site = grid.site_of(job.rank(s).host());
    result.rays_per_site[static_cast<size_t>(site)] +=
        result.rays_per_slave[static_cast<size_t>(s - 1)];
  }
  result.compute_time = sh.compute_done;
  result.merge_time = sh.merge_done - sh.compute_done;
  result.total_time = sh.total_done;
  result.degraded_progress_events = job.degraded_progress_events();
  return result;
}

}  // namespace gridsim::apps
