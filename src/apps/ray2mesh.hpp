// ray2mesh: the paper's real application (Sections 2.2.1 and 4.4).
//
// A master/worker seismic ray tracer: the master hands out sets of 1000
// rays (69 kB per set message) to 32 slaves on demand — a faster slave (or
// one closer to the master) turns sets around quicker and therefore
// computes more rays (Table 6). When the 1M rays are exhausted, every node
// merges the submesh information (~235 MB of traffic per node) (Table 7).
#pragma once

#include <vector>

#include "profiles/profiles.hpp"
#include "simcore/simulation.hpp"
#include "simcore/time.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::apps {

struct Ray2MeshConfig {
  int total_rays = 1'000'000;
  int rays_per_set = 1000;
  double request_bytes = 64;    ///< slave -> master work request
  double set_bytes = 69'000;    ///< master -> slave: one set of 1000 rays
  /// Reference compute time per ray (calibrated so the four-cluster
  /// deployment's compute phase lasts ~185 s, Table 7).
  double ray_compute_seconds = 6.17e-3;
  /// Merge-phase traffic per node (the paper: ~235 MB).
  double merge_traffic_bytes = 235e6;
  /// Reference merge computation per node (mesh cell merging dominates the
  /// paper's ~166 s merge phase; the network moves 235 MB in seconds).
  double merge_compute_seconds = 160.0;
  /// Initialisation + final write phases (total - comp - merge in Table 7).
  double init_write_seconds = 8.0;
};

struct Ray2MeshResult {
  /// Rays computed by each slave (index = slave id, 0-based).
  std::vector<int> rays_per_slave;
  /// Rays computed per site.
  std::vector<int> rays_per_site;
  SimTime compute_time = 0;  ///< work distribution phase duration
  SimTime merge_time = 0;    ///< merge phase duration
  SimTime total_time = 0;    ///< compute + merge + init/write
  /// TCP stall (RTO-like) events across the job: nonzero when a fault plan
  /// degraded the WAN during the run (see mpi::Job).
  int degraded_progress_events = 0;
};

/// Runs ray2mesh over every node of `spec` (one slave per node, plus a
/// master co-located on node 0 of `master_site`).
Ray2MeshResult run_ray2mesh(const topo::GridSpec& spec, int master_site,
                            const profiles::ExperimentConfig& cfg,
                            const Ray2MeshConfig& app = {});

}  // namespace gridsim::apps
