// Allocation regression test for the per-message path.
//
// Once the engine's pools are warm, sending an MPI message should not call
// the global allocator: events carry inline callbacks, coroutine frames and
// spilled payloads come from the small-block pool, flows are recycled slot
// map entries and TCP segments sit in a ring. This binary replaces the
// global `operator new` with a counting one, runs one NPB kernel to warm the
// pools, and counts the allocations of a second, identical run. The bounds
// leave room for per-run set-up (topology, job, channels) and, on the
// collective-heavy kernels, for the vectors the collective algorithms build
// per call, but fail long before the per-message cost returns to one
// allocation: a non-blocking request's shared state comes from the pool and
// the rendez-vous handshake's waiter tables are flat vectors.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "harness/npb_campaign.hpp"
#include "profiles/profiles.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// The array, nothrow and sized forms of the standard library forward to
// these. GCC cannot see that this `operator new` is malloc-backed and warns
// where it inlines the pairing `free`.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace gridsim {
namespace {

struct Counted {
  std::uint64_t messages = 0;
  std::uint64_t allocations = 0;
};

/// NPB class W on 4 ranks of one cluster, configured as the benchmark's
/// fig12/OpenMPI cells are: the second of two identical runs.
Counted count_warm_run(npb::Kernel kernel) {
  const profiles::ExperimentConfig cfg =
      profiles::experiment(profiles::openmpi())
          .tuning(profiles::TuningLevel::kTcpTuned);
  const topo::GridSpec spec = topo::GridSpec::single_cluster(4);
  harness::run_npb(spec, 4, kernel, npb::Class::kW, cfg);
  const std::uint64_t before = g_allocations.load();
  const harness::NpbRunResult res =
      harness::run_npb(spec, 4, kernel, npb::Class::kW, cfg);
  Counted c;
  c.allocations = g_allocations.load() - before;
  c.messages = res.traffic.p2p_messages + res.traffic.collective_messages;
  ::testing::Test::RecordProperty("allocations",
                                  std::to_string(c.allocations));
  ::testing::Test::RecordProperty("messages", std::to_string(c.messages));
  return c;
}

TEST(Allocations, LuEagerPathAllocatesNothingPerMessage) {
  const Counted c = count_warm_run(npb::Kernel::kLU);
  ASSERT_EQ(c.messages, 79200u);
  EXPECT_LE(static_cast<double>(c.allocations),
            0.5 * static_cast<double>(c.messages))
      << c.allocations << " allocations for " << c.messages << " messages";
}

TEST(Allocations, CgNonBlockingPathStaysBounded) {
  const Counted c = count_warm_run(npb::Kernel::kCG);
  ASSERT_EQ(c.messages, 5460u);
  EXPECT_LE(static_cast<double>(c.allocations),
            0.5 * static_cast<double>(c.messages))
      << c.allocations << " allocations for " << c.messages << " messages";
}

TEST(Allocations, IsRendezvousPathStaysBounded) {
  const Counted c = count_warm_run(npb::Kernel::kIS);
  ASSERT_EQ(c.messages, 360u);
  EXPECT_LE(static_cast<double>(c.allocations),
            1.5 * static_cast<double>(c.messages))
      << c.allocations << " allocations for " << c.messages << " messages";
}

}  // namespace
}  // namespace gridsim
