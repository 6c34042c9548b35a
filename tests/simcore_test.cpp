// Unit tests for the discrete-event engine, coroutine tasks and sync
// primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "simcore/callback.hpp"
#include "simcore/json.hpp"
#include "simcore/ring.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"
#include "simcore/sync.hpp"
#include "simcore/task.hpp"
#include "simcore/time.hpp"

namespace gridsim {
namespace {

using namespace gridsim::literals;

TEST(Time, Conversions) {
  EXPECT_EQ(microseconds(3), 3000);
  EXPECT_EQ(milliseconds(2), 2'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000);
  EXPECT_EQ(from_seconds(1.0), seconds(1));
  EXPECT_EQ(from_seconds(0.0), 0);
  // Rounds up: a fluid transfer never finishes early.
  EXPECT_EQ(from_seconds(1e-9 * 1.5), 2);
  EXPECT_DOUBLE_EQ(to_seconds(1'500'000'000), 1.5);
}

TEST(Time, Literals) {
  EXPECT_EQ(5_us, microseconds(5));
  EXPECT_EQ(11_ms, milliseconds(11));
  EXPECT_EQ(2_s, seconds(2));
}

TEST(Time, Format) {
  EXPECT_EQ(format_time(5), "5 ns");
  EXPECT_EQ(format_time(kSimTimeNever), "never");
  EXPECT_NE(format_time(milliseconds(100)).find("ms"), std::string::npos);
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimestampsAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) q.schedule(42, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.run_next();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NextTime) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kSimTimeNever);
  q.schedule(7, [] {});
  EXPECT_EQ(q.next_time(), 7);
}

// Drives random at/after/post calls and records what the engine runs. Each
// call lands `draw_offset()` ns after now(); callbacks schedule more events,
// and the test loop schedules from outside between run_until() slices
// (where now() can be ahead of the last executed event, so a call's delay
// from the queue's floor differs from its offset). The reference is a
// plain count and a sort.
class OrderModel {
 public:
  using OffsetDraw = SimTime (*)(Rng&);

  OrderModel(Simulation& sim, std::uint64_t seed, int budget,
             OffsetDraw draw_offset)
      : sim_(sim), rng_(seed), budget_(budget), draw_offset_(draw_offset) {}

  int scheduled() const { return static_cast<int>(scheduled_.size()); }

  void schedule_some(int max_count) {
    const auto n = rng_.uniform_int(0, max_count);
    for (std::int64_t i = 0; i < n && scheduled() < budget_; ++i) {
      const SimTime dt = draw_offset_(rng_);
      const int id = scheduled();
      scheduled_.emplace_back(sim_.now() + dt, id);
      Callback run = [this, id] { on_run(id); };
      switch (rng_.uniform_int(0, 2)) {
        case 0:
          sim_.at(sim_.now() + dt, std::move(run));
          break;
        case 1:
          sim_.after(dt, std::move(run));
          break;
        default:
          if (dt == 0) {
            sim_.post(std::move(run));
          } else {
            sim_.at(sim_.now() + dt, std::move(run));
          }
      }
      const std::size_t pending = scheduled_.size() - ran_.size();
      if (sim_.queue_depth() != pending) ++depth_mismatches_;
      peak_ = std::max(peak_, pending);
    }
  }

  void check() const {
    // Run order = (time, insertion index) order, the heap-only engine's.
    std::vector<std::pair<SimTime, int>> expected = scheduled_;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(ran_, expected);
    EXPECT_EQ(depth_mismatches_, 0);
    EXPECT_EQ(sim_.peak_queue_depth(), peak_);
  }

 private:
  void on_run(int id) {
    ran_.emplace_back(sim_.now(), id);
    if (sim_.queue_depth() != scheduled_.size() - ran_.size())
      ++depth_mismatches_;
    schedule_some(3);
  }

  Simulation& sim_;
  Rng rng_;
  int budget_;
  OffsetDraw draw_offset_;
  std::vector<std::pair<SimTime, int>> scheduled_;  // (time, insertion index)
  std::vector<std::pair<SimTime, int>> ran_;
  std::size_t peak_ = 0;
  int depth_mismatches_ = 0;
};

// Runs 16 seeded OrderModel schedules to the end, the test loop advancing
// the clock by 0 to `max_slice` ns between its own calls.
void check_order_model(OrderModel::OffsetDraw draw_offset, SimTime max_slice) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Simulation sim;
    OrderModel model(sim, seed, 4000, draw_offset);
    Rng slices(seed + 1000);
    SimTime horizon = 0;
    while (model.scheduled() < 4000 && horizon < 100'000) {
      model.schedule_some(4);
      horizon += slices.uniform_int(0, max_slice);
      sim.run_until(horizon);
    }
    sim.run();
    EXPECT_EQ(sim.queue_depth(), 0u);
    model.check();
  }
}

// The current instant or a few ns ahead, so most events share a timestamp
// with others that sit in the heap, in the same-time lane, or in both.
SimTime near_offset(Rng& rng) {
  static constexpr SimTime kOffsets[] = {0, 0, 0, 1, 2, 7};
  return kOffsets[rng.uniform_int(0, 5)];
}

TEST(EventQueue, SameTimeLaneKeepsTimeThenInsertionOrder) {
  check_order_model(near_offset, 3);
}

// Fifteen recurring delays with skewed weights — more than the queue has
// lanes, so lanes fill, drain and are rebound while others still hold keys,
// and some keys find no lane — plus same-time posts and rare one-off
// delays. Delays that are multiples of one another make keys of different
// lanes, and of the heap, meet at one timestamp.
SimTime recurring_offset(Rng& rng) {
  static constexpr SimTime kOffsets[] = {
      0, 0, 0, 0,  70, 70, 70, 70, 70, 70, 70, 35, 35, 35, 35, 5,
      5, 5, 1, 10, 10, 2,  3,  7,  14, 20, 40, 45, 90, 140, 280, 70};
  if (rng.uniform_int(0, 63) == 0) return rng.uniform_int(1, 5000);
  return kOffsets[rng.uniform_int(0, 31)];
}

TEST(EventQueue, DelayLanesKeepTimeThenInsertionOrder) {
  check_order_model(recurring_offset, 40);
}

TEST(Simulation, NowAdvancesWithEvents) {
  Simulation sim;
  SimTime seen = -1;
  sim.at(100, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulation, SchedulingInPastThrows) {
  Simulation sim;
  sim.at(100, [] {});
  sim.run();
  EXPECT_THROW(sim.at(50, [] {}), std::logic_error);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  int fired = 0;
  sim.at(10, [&] { ++fired; });
  sim.at(20, [&] { ++fired; });
  sim.at(30, [&] { ++fired; });
  EXPECT_TRUE(sim.run_until(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_FALSE(sim.run_until(100));
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulation, RunUntilAPastTimeThrowsAndKeepsTheClock) {
  // Turning the clock back would make the next after() land before the
  // queue's floor; the mistake must surface at the call that makes it.
  Simulation sim;
  EXPECT_FALSE(sim.run_until(2_ms));
  EXPECT_THROW(sim.run_until(1_ms), std::logic_error);
  EXPECT_EQ(sim.now(), 2_ms);
  SimTime fired = -1;
  sim.after(1_ms, [&] { fired = sim.now(); });
  sim.run();
  EXPECT_EQ(fired, 3_ms);
}

TEST(Simulation, RunDrainsTimersLeftAfterTheLastProcess) {
  // run() does not stop when the last process ends: a timer still pending
  // (a superseded TCP tick, say) runs too and sets the returned end time.
  Simulation sim;
  SimTime ended = -1;
  sim.spawn([](Simulation& s, SimTime* end) -> Task<void> {
    co_await s.delay(10);
    *end = s.now();
  }(sim, &ended));
  int fired = 0;
  sim.at(100, [&] { ++fired; });
  EXPECT_EQ(sim.run(), 100);
  EXPECT_EQ(ended, 10);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.live_processes(), 0);
  // The process's start and its wake-up at 10 ns, then the timer.
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  std::vector<SimTime> times;
  sim.at(10, [&] {
    times.push_back(sim.now());
    sim.after(15, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 25}));
}

Task<void> record_delays(Simulation& sim, std::vector<SimTime>& out) {
  out.push_back(sim.now());
  co_await sim.delay(100);
  out.push_back(sim.now());
  co_await sim.delay(50);
  out.push_back(sim.now());
}

TEST(Coroutine, DelayAdvancesVirtualTime) {
  Simulation sim;
  std::vector<SimTime> times;
  sim.spawn(record_delays(sim, times));
  EXPECT_EQ(sim.live_processes(), 1);
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{0, 100, 150}));
  EXPECT_EQ(sim.live_processes(), 0);
}

Task<int> add_later(Simulation& sim, int a, int b) {
  co_await sim.delay(10);
  co_return a + b;
}

Task<void> nested_caller(Simulation& sim, int& out) {
  const int x = co_await add_later(sim, 2, 3);
  const int y = co_await add_later(sim, x, 10);
  out = y;
}

TEST(Coroutine, NestedTasksReturnValues) {
  Simulation sim;
  int out = 0;
  sim.spawn(nested_caller(sim, out));
  sim.run();
  EXPECT_EQ(out, 15);
  EXPECT_EQ(sim.now(), 20);
}

Task<int> throws_after_delay(Simulation& sim) {
  co_await sim.delay(5);
  throw std::runtime_error("boom");
}

Task<void> catches(Simulation& sim, bool& caught) {
  try {
    (void)co_await throws_after_delay(sim);
  } catch (const std::runtime_error& e) {
    caught = std::string(e.what()) == "boom";
  }
}

TEST(Coroutine, ExceptionsPropagateToAwaiter) {
  Simulation sim;
  bool caught = false;
  sim.spawn(catches(sim, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Coroutine, ManyProcessesInterleaveDeterministically) {
  Simulation sim;
  std::vector<int> order;
  auto worker = [](Simulation& s, std::vector<int>& ord, int id,
                   SimTime step) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await s.delay(step);
      ord.push_back(id);
    }
  };
  sim.spawn(worker(sim, order, 0, 10));
  sim.spawn(worker(sim, order, 1, 10));
  sim.run();
  // Same timestamps resolve in spawn order every iteration.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1, 0, 1}));
}

Task<void> wait_trigger(Trigger& t, Simulation& sim, std::vector<SimTime>& out) {
  co_await t.wait();
  out.push_back(sim.now());
}

TEST(Sync, TriggerReleasesAllWaiters) {
  Simulation sim;
  Trigger t(sim);
  std::vector<SimTime> woke;
  sim.spawn(wait_trigger(t, sim, woke));
  sim.spawn(wait_trigger(t, sim, woke));
  sim.at(500, [&] { t.fire(); });
  sim.run();
  EXPECT_EQ(woke, (std::vector<SimTime>{500, 500}));
  EXPECT_TRUE(t.fired());
}

Task<void> wait_trigger_tagged(Trigger& t, int tag, std::vector<int>& out) {
  co_await t.wait();
  out.push_back(tag);
}

TEST(Sync, TriggerResumesWaitersInWaitOrder) {
  // The first waiter is held inline and the rest in a vector; together
  // they must still resume first-come, first-served.
  Simulation sim;
  Trigger t(sim);
  std::vector<int> woke;
  for (int i = 0; i < 4; ++i) sim.spawn(wait_trigger_tagged(t, i, woke));
  sim.at(10, [&] { t.fire(); });
  sim.run();
  EXPECT_EQ(woke, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Sync, TriggerAlreadyFiredCompletesImmediately) {
  Simulation sim;
  Trigger t(sim);
  t.fire();
  std::vector<SimTime> woke;
  sim.at(100, [&] { sim.spawn(wait_trigger(t, sim, woke)); });
  sim.run();
  EXPECT_EQ(woke, (std::vector<SimTime>{100}));
}

TEST(Sync, OneShotDeliversValueSetBeforeWait) {
  Simulation sim;
  OneShot<int> slot(sim);
  slot.set(41);
  int got = 0;
  auto reader = [](OneShot<int>& s, int& g) -> Task<void> {
    g = co_await s.wait();
  };
  sim.spawn(reader(slot, got));
  sim.run();
  EXPECT_EQ(got, 41);
}

TEST(Sync, OneShotDeliversValueSetAfterWait) {
  Simulation sim;
  OneShot<std::string> slot(sim);
  std::string got;
  auto reader = [](OneShot<std::string>& s, std::string& g) -> Task<void> {
    g = co_await s.wait();
  };
  sim.spawn(reader(slot, got));
  sim.at(300, [&] { slot.set("hello"); });
  sim.run();
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(sim.now(), 300);
}

TEST(Sync, MailboxBuffersWhenNoWaiter) {
  Simulation sim;
  Mailbox<int> box(sim);
  box.push(1);
  box.push(2);
  std::vector<int> got;
  auto reader = [](Mailbox<int>& b, std::vector<int>& g) -> Task<void> {
    g.push_back(co_await b.pop());
    g.push_back(co_await b.pop());
  };
  sim.spawn(reader(box, got));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(Sync, MailboxServesWaitersFifo) {
  Simulation sim;
  Mailbox<int> box(sim);
  std::vector<std::pair<int, int>> got;  // (reader id, value)
  auto reader = [](Mailbox<int>& b, std::vector<std::pair<int, int>>& g,
                   int id) -> Task<void> {
    const int v = co_await b.pop();
    g.emplace_back(id, v);
  };
  sim.spawn(reader(box, got, 0));
  sim.spawn(reader(box, got, 1));
  sim.at(10, [&] {
    box.push(100);
    box.push(200);
  });
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::make_pair(0, 100));
  EXPECT_EQ(got[1], std::make_pair(1, 200));
}

TEST(Sync, MailboxPushedItemIsReservedForWokenWaiter) {
  Simulation sim;
  Mailbox<int> box(sim);
  std::vector<std::pair<int, int>> got;
  auto reader = [](Mailbox<int>& b, std::vector<std::pair<int, int>>& g,
                   int id) -> Task<void> {
    const int v = co_await b.pop();
    g.emplace_back(id, v);
  };
  sim.spawn(reader(box, got, 0));  // blocks first
  sim.at(10, [&] {
    box.push(7);
    // Reader 1 starts at the same timestamp, after the push: it must not
    // steal the item already assigned to reader 0.
    sim.spawn(reader(box, got, 1));
    box.push(8);
  });
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::make_pair(0, 7));
  EXPECT_EQ(got[1], std::make_pair(1, 8));
}

TEST(Sync, SemaphoreLimitsConcurrency) {
  Simulation sim;
  Semaphore sem(sim, 2);
  int active = 0;
  int peak = 0;
  auto worker = [](Simulation& s, Semaphore& sm, int& act,
                   int& pk) -> Task<void> {
    co_await sm.acquire();
    ++act;
    pk = std::max(pk, act);
    co_await s.delay(100);
    --act;
    sm.release();
  };
  for (int i = 0; i < 6; ++i) sim.spawn(worker(sim, sem, active, peak));
  sim.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(active, 0);
  EXPECT_EQ(sim.now(), 300);  // three waves of two
}

TEST(Json, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(json_escape("plain text"), "plain text");
  EXPECT_EQ(json_escape("say \"hi\" \\ bye"), "say \\\"hi\\\" \\\\ bye");
  EXPECT_EQ(json_escape("a\nb\tc\x01"), "a\\u000ab\\u0009c\\u0001");
}

TEST(Ring, FifoAcrossGrowthAndWrapAround) {
  Ring<int> ring;
  std::vector<int> out;
  int next = 0;
  // Interleave pushes and pops so the head wraps before, during and after
  // the buffer doubles.
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 3; ++i) ring.push_back(next++);
    for (int i = 0; i < 2; ++i) {
      out.push_back(ring.front());
      ring.pop_front();
    }
  }
  EXPECT_EQ(ring.size(), 40u);
  for (std::size_t i = 0; i < ring.size(); ++i)
    EXPECT_EQ(ring[i], out.back() + 1 + static_cast<int>(i));
  while (!ring.empty()) {
    out.push_back(ring.front());
    ring.pop_front();
  }
  ASSERT_EQ(out.size(), 120u);
  for (int i = 0; i < 120; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i);
}

#if defined(__SANITIZE_ADDRESS__)
// The pool keeps freed coroutine frames and callback payloads on its free
// lists, poisoned: touching one after it was destroyed must still be an
// ASan report, as it would be for memory returned to the allocator.
Task<int> pooled_frame() { co_return 1; }

struct SpilledPayload {
  char pad[100];
  const void** where;
  void operator()() { *where = this; }
};

TEST(PoolDeathTest, DestroyedCoroutineFrameIsPoisoned) {
  EXPECT_DEATH(
      {
        std::coroutine_handle<> frame = pooled_frame().release();
        const void* addr = frame.address();
        frame.destroy();
        (void)*static_cast<const volatile char*>(addr);
      },
      "use-after-poison");
}

TEST(PoolDeathTest, FreedCallbackPayloadIsPoisoned) {
  EXPECT_DEATH(
      {
        const void* payload = nullptr;
        {
          Callback cb(SpilledPayload{{}, &payload});
          cb();
        }
        (void)*static_cast<const volatile char*>(payload);
      },
      "use-after-poison");
}
#endif

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitStreamsDiffer) {
  Rng a(1);
  Rng s1 = a.split(1);
  Rng s2 = a.split(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (s1.next() == s2.next()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformIntInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng r(7);
  bool seen[11] = {};
  for (int i = 0; i < 1000; ++i) seen[r.uniform_int(0, 10)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng r(99);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

}  // namespace
}  // namespace gridsim
