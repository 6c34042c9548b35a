// Stress and determinism tests for the simulation engine.
#include <gtest/gtest.h>

#include <vector>

#include "collectives/collectives.hpp"
#include "mpi/mpi.hpp"
#include "profiles/profiles.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"
#include "simcore/sync.hpp"
#include "topology/grid5000.hpp"

namespace gridsim {
namespace {

TEST(EngineStress, HundredThousandEventsInOrder) {
  // About 5% of the timestamps repeat; events that share one must run in
  // the order they were scheduled.
  Simulation sim;
  Rng rng(42);
  SimTime last_time = -1;
  int last_index = -1;
  int disordered = 0;
  for (int i = 0; i < 100'000; ++i) {
    const SimTime t = rng.uniform_int(0, 1'000'000);
    sim.at(t, [&, i] {
      if (sim.now() < last_time || (sim.now() == last_time && i < last_index))
        ++disordered;
      last_time = sim.now();
      last_index = i;
    });
  }
  sim.run();
  EXPECT_EQ(disordered, 0);
  EXPECT_EQ(sim.events_processed(), 100'000u);
}

Task<void> chatter(Simulation& sim, Mailbox<int>* in, Mailbox<int>* out,
                   int rounds) {
  for (int i = 0; i < rounds; ++i) {
    const int v = co_await in->pop();
    co_await sim.delay(1);
    out->push(v + 1);
  }
}

TEST(EngineStress, FiveThousandCoroutinesPingPong) {
  Simulation sim;
  constexpr int kPairs = 2'500;
  std::vector<std::unique_ptr<Mailbox<int>>> boxes;
  for (int i = 0; i < 2 * kPairs; ++i)
    boxes.push_back(std::make_unique<Mailbox<int>>(sim));
  for (int i = 0; i < kPairs; ++i) {
    sim.spawn(chatter(sim, boxes[2 * size_t(i)].get(),
                      boxes[2 * size_t(i) + 1].get(), 10));
    sim.spawn(chatter(sim, boxes[2 * size_t(i) + 1].get(),
                      boxes[2 * size_t(i)].get(), 10));
    boxes[2 * size_t(i)]->push(0);
  }
  sim.run();
  EXPECT_EQ(sim.live_processes(), 0);
}

/// Full MPI scenario run twice must produce byte-identical results.
struct RunSignature {
  SimTime end;
  std::uint64_t events;
  std::uint64_t msgs;
  double bytes;
  bool operator==(const RunSignature& o) const {
    return end == o.end && events == o.events && msgs == o.msgs &&
           bytes == o.bytes;
  }
};

Task<void> stress_rank(mpi::Rank& r) {
  // A mix of everything: wildcard receives, nonblocking ops, collectives.
  const int right = (r.rank() + 1) % r.size();
  const int left = (r.rank() - 1 + r.size()) % r.size();
  for (int i = 0; i < 5; ++i) {
    mpi::Request rq = r.irecv(left, 7);
    co_await r.send(right, 1000.0 * (i + 1), 7);
    (void)co_await r.wait(rq);
    co_await coll::barrier(r);
  }
}

RunSignature run_once() {
  Simulation sim;
  topo::Grid grid(sim, topo::GridSpec::rennes_nancy(4));
  const profiles::ExperimentConfig cfg =
      profiles::experiment(profiles::gridmpi())
          .tuning(profiles::TuningLevel::kTcpTuned);
  mpi::Job job(grid, mpi::block_placement(grid, 8), cfg.profile, cfg.kernel);
  job.launch([](mpi::Rank& r) { return stress_rank(r); });
  const SimTime end = sim.run();
  return RunSignature{end, sim.events_processed(),
                      job.traffic().p2p_messages, job.traffic().p2p_bytes};
}

TEST(EngineStress, FullScenarioBitReproducible) {
  const RunSignature a = run_once();
  const RunSignature b = run_once();
  EXPECT_TRUE(a == b);
}

TEST(EngineStress, SpawnInsideEventAtSameTimestamp) {
  Simulation sim;
  std::vector<int> order;
  sim.at(100, [&] {
    order.push_back(1);
    sim.spawn([](std::vector<int>* ord) -> Task<void> {
      ord->push_back(2);
      co_return;
    }(&order));
    order.push_back(3);  // runs before the spawned task (FIFO)
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(sim.now(), 100);
}

TEST(EngineStress, SpawnEmptyTaskThrows) {
  Simulation sim;
  EXPECT_THROW(sim.spawn(Task<void>{}), std::invalid_argument);
}

// Pins the exact pop order of the event queue under a stress mix: 20k
// events at hash-random timestamps (every third with an oversized capture
// that takes the engine's out-of-line payload path), plus one event that
// fans out 200 same-timestamp FIFO-tied events. The digest value was
// computed on the std::function/binary-heap engine this queue replaced;
// it must never change — FIFO tie-breaking and global event order are part
// of the determinism contract (docs/architecture.md).
TEST(EngineStress, EventOrderDigestPinnedAcrossEngineRewrites) {
  Simulation sim;
  Rng rng(2024);
  std::uint64_t digest = 1469598103934665603ULL;  // FNV-1a offset basis
  auto fold = [&digest](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xff;
      digest *= 1099511628211ULL;  // FNV-1a prime
    }
  };
  for (int i = 0; i < 20'000; ++i) {
    const SimTime t = rng.uniform_int(0, 1'000'000);
    const auto id = static_cast<std::uint64_t>(i);
    if (i % 3 == 0) {
      // Oversized capture: out-of-line payload in any engine variant.
      std::uint64_t pad[6] = {rng.next(), rng.next(), rng.next(),
                              rng.next(), rng.next(), rng.next()};
      sim.at(t, [&fold, &sim, id, pad] {
        fold(id);
        fold(static_cast<std::uint64_t>(sim.now()));
        fold(pad[0] + pad[5]);
      });
    } else {
      sim.at(t, [&fold, &sim, id] {
        fold(id);
        fold(static_cast<std::uint64_t>(sim.now()));
      });
    }
  }
  // Events scheduling events, including FIFO ties at one timestamp.
  sim.at(500'000, [&sim, &fold] {
    for (int k = 0; k < 100; ++k) {
      const auto kk = static_cast<std::uint64_t>(k);
      sim.post([&fold, kk] { fold(0xABC000 + kk); });
      sim.after(k, [&fold, kk] { fold(0xDEF000 + kk); });
    }
  });
  sim.run();
  EXPECT_EQ(digest, 0x46eedc3e83bfd243ULL);
  EXPECT_EQ(sim.events_processed(), 20'201u);
}

}  // namespace
}  // namespace gridsim
