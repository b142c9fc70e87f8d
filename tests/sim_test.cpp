// Unit tests for the discrete-event kernel: event ordering, coroutine tasks,
// channels (backpressure, close), futures, wait groups, gates, semaphores and
// rate servers.
#include <gtest/gtest.h>

#include <vector>

#include "sim/channel.hpp"
#include "sim/future.hpp"
#include "sim/rate_server.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace snacc::sim {
namespace {

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(ns(30), [&] { order.push_back(3); });
  sim.at(ns(10), [&] { order.push_back(1); });
  sim.at(ns(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), ns(30));
}

TEST(Simulator, EqualTimestampsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.at(ns(7), [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.at(us(1), [&] { ++fired; });
  sim.at(us(3), [&] { ++fired; });
  sim.run_until(us(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), us(2));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, NestedEventsFromHandlers) {
  Simulator sim;
  int depth = 0;
  sim.at(ns(1), [&] {
    sim.after(ns(1), [&] {
      sim.after(ns(1), [&] { depth = 3; });
      depth = 2;
    });
    depth = 1;
  });
  sim.run();
  EXPECT_EQ(depth, 3);
  EXPECT_EQ(sim.now(), ns(3));
}

TEST(Task, DelaySuspendsForExactDuration) {
  Simulator sim;
  TimePs woke;
  auto proc = [&]() -> Task {
    co_await sim.delay(us(5));
    woke = sim.now();
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_EQ(woke, us(5));
}

TEST(Task, AwaitedChildRunsToCompletionFirst) {
  Simulator sim;
  std::vector<int> order;
  auto child = [&]() -> Task {
    order.push_back(1);
    co_await sim.delay(ns(100));
    order.push_back(2);
  };
  auto parent = [&]() -> Task {
    order.push_back(0);
    co_await child();
    order.push_back(3);
  };
  sim.spawn(parent());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Task, ManyConcurrentTasksInterleaveDeterministically) {
  Simulator sim;
  std::vector<int> order;
  auto worker = [&](int id, TimePs period) -> Task {
    for (int i = 0; i < 3; ++i) {
      co_await sim.delay(period);
      order.push_back(id);
    }
  };
  sim.spawn(worker(0, ns(10)));
  sim.spawn(worker(1, ns(15)));
  sim.run();
  // t=10:0, t=15:1, t=20:0, t=30: 1 then 0 (1's delay was scheduled at
  // t=15, before 0's at t=20), t=45:1.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1, 0, 1}));
}

TEST(Channel, FifoOrderPreserved) {
  Simulator sim;
  Channel<int> ch(sim, 4);
  std::vector<int> got;
  auto producer = [&]() -> Task {
    for (int i = 0; i < 10; ++i) co_await ch.push(i);
    ch.close();
  };
  auto consumer = [&]() -> Task {
    while (auto v = co_await ch.pop()) got.push_back(*v);
  };
  sim.spawn(producer());
  sim.spawn(consumer());
  sim.run();
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

TEST(Channel, BackpressureBlocksProducer) {
  Simulator sim;
  Channel<int> ch(sim, 2);
  TimePs producer_done;
  auto producer = [&]() -> Task {
    for (int i = 0; i < 4; ++i) co_await ch.push(i);
    producer_done = sim.now();
  };
  auto consumer = [&]() -> Task {
    co_await sim.delay(us(10));
    while (co_await ch.pop()) {
      if (ch.empty() && ch.size() == 0) break;  // drain
    }
  };
  sim.spawn(producer());
  sim.spawn(consumer());
  sim.run_until(us(100));
  // Producer cannot finish before the consumer starts draining at 10 us.
  EXPECT_GE(producer_done, us(10));
}

TEST(Channel, PopOnClosedEmptyReturnsNullopt) {
  Simulator sim;
  Channel<int> ch(sim, 2);
  bool saw_end = false;
  auto consumer = [&]() -> Task {
    auto v = co_await ch.pop();
    saw_end = !v.has_value();
  };
  sim.spawn(consumer());
  sim.after(ns(5), [&] { ch.close(); });
  sim.run();
  EXPECT_TRUE(saw_end);
}

TEST(Channel, CloseDrainsRemainingItems) {
  Simulator sim;
  Channel<int> ch(sim, 8);
  std::vector<int> got;
  auto producer = [&]() -> Task {
    co_await ch.push(1);
    co_await ch.push(2);
    ch.close();
  };
  auto consumer = [&]() -> Task {
    co_await sim.delay(us(1));
    while (auto v = co_await ch.pop()) got.push_back(*v);
  };
  sim.spawn(producer());
  sim.spawn(consumer());
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(Channel, MultipleConsumersEachGetItems) {
  Simulator sim;
  Channel<int> ch(sim, 1);
  int count_a = 0;
  int count_b = 0;
  auto consumer = [&](int* counter) -> Task {
    while (auto v = co_await ch.pop()) ++*counter;
  };
  auto producer = [&]() -> Task {
    for (int i = 0; i < 100; ++i) co_await ch.push(i);
    ch.close();
  };
  sim.spawn(consumer(&count_a));
  sim.spawn(consumer(&count_b));
  sim.spawn(producer());
  sim.run();
  EXPECT_EQ(count_a + count_b, 100);
  EXPECT_GT(count_a, 0);
  EXPECT_GT(count_b, 0);
}

// Regression test for a GCC 12 coroutine miscompilation: awaiters returned
// by value that carry non-trivial members (e.g. aggregates holding a
// shared_ptr) are duplicated bitwise and destroyed twice, silently dropping
// ownership. The channel therefore keeps all in-flight values in
// channel-owned nodes; this test fails (use_count reaches 0 mid-flight) if
// that invariant is broken.
TEST(Channel, SharedOwnershipSurvivesHandoff) {
  // NB: Msg deliberately declares its special members -- a plain aggregate
  // {shared_ptr, bool} is bitwise-duplicated by the compiler bug and this
  // test would fail. Every repo struct crossing co_await boundaries follows
  // this pattern (Chunk, RobEntry, ReadResult).
  struct Msg {
    std::shared_ptr<int> p;
    bool flag = false;
    Msg() = default;
    Msg(std::shared_ptr<int> q, bool f) : p(std::move(q)), flag(f) {}
    Msg(Msg&&) noexcept = default;
    Msg& operator=(Msg&&) noexcept = default;
  };
  Simulator sim;
  Channel<Msg> ch(sim, 4);
  std::weak_ptr<int> weak;
  long observed_use = -1;
  int observed_value = -1;
  auto receiver = [&]() -> Task {
    auto msg = co_await ch.pop();
    observed_use = weak.use_count();
    if (msg && msg->p) observed_value = *msg->p;
  };
  auto sender = [&]() -> Task {
    auto sp = std::make_shared<int>(77);
    weak = sp;
    co_await ch.push(Msg(std::move(sp), true));
    EXPECT_GE(weak.use_count(), 1) << "ownership lost during push handoff";
  };
  sim.spawn(receiver());
  sim.spawn(sender());
  sim.run();
  EXPECT_EQ(observed_use, 1);
  EXPECT_EQ(observed_value, 77);
  EXPECT_EQ(weak.use_count(), 0);  // consumer released it at scope exit
}

TEST(Channel, SharedOwnershipSurvivesBackpressuredPush) {
  struct Msg {
    std::shared_ptr<int> p;
    Msg() = default;
    explicit Msg(std::shared_ptr<int> q) : p(std::move(q)) {}
    Msg(Msg&&) noexcept = default;
    Msg& operator=(Msg&&) noexcept = default;
  };
  Simulator sim;
  Channel<Msg> ch(sim, 1);
  std::vector<std::weak_ptr<int>> weaks;
  int received = 0;
  auto sender = [&]() -> Task {
    for (int i = 0; i < 5; ++i) {
      auto sp = std::make_shared<int>(i);
      weaks.push_back(sp);
      co_await ch.push(Msg(std::move(sp)));
    }
    ch.close();
  };
  auto receiver = [&]() -> Task {
    while (auto msg = co_await ch.pop()) {
      co_await sim.delay(us(1));
      EXPECT_TRUE(msg->p != nullptr);
      if (msg->p) {
        EXPECT_EQ(*msg->p, received);
      }
      ++received;
    }
  };
  sim.spawn(sender());
  sim.spawn(receiver());
  sim.run();
  EXPECT_EQ(received, 5);
  for (auto& w : weaks) EXPECT_EQ(w.use_count(), 0);
}

TEST(Future, AwaitersResumeWhenSet) {
  Simulator sim;
  Promise<int> promise(sim);
  int got_a = 0;
  int got_b = 0;
  auto waiter = [&](int* out) -> Task {
    auto fut = promise.future();
    *out = co_await fut;
  };
  sim.spawn(waiter(&got_a));
  sim.spawn(waiter(&got_b));
  sim.after(us(2), [&] { promise.set(42); });
  sim.run();
  EXPECT_EQ(got_a, 42);
  EXPECT_EQ(got_b, 42);
}

TEST(Future, AwaitAfterSetIsImmediate) {
  Simulator sim;
  Promise<int> promise(sim);
  promise.set(7);
  int got = 0;
  auto waiter = [&]() -> Task {
    auto fut = promise.future();
    got = co_await fut;
  };
  sim.spawn(waiter());
  sim.run();
  EXPECT_EQ(got, 7);
}

TEST(WaitGroup, JoinsAllTasks) {
  Simulator sim;
  WaitGroup wg(sim);
  TimePs joined_at;
  auto worker = [&](TimePs d) -> Task {
    co_await sim.delay(d);
    wg.done();
  };
  auto joiner = [&]() -> Task {
    co_await wg.wait();
    joined_at = sim.now();
  };
  wg.add(3);
  sim.spawn(worker(us(1)));
  sim.spawn(worker(us(5)));
  sim.spawn(worker(us(3)));
  sim.spawn(joiner());
  sim.run();
  EXPECT_EQ(joined_at, us(5));
}

TEST(Gate, ClosedGateBlocksUntilOpened) {
  Simulator sim;
  Gate gate(sim, /*open=*/false);
  TimePs passed_at;
  auto proc = [&]() -> Task {
    co_await gate.opened();
    passed_at = sim.now();
  };
  sim.spawn(proc());
  sim.after(us(9), [&] { gate.open(); });
  sim.run();
  EXPECT_EQ(passed_at, us(9));
}

TEST(Gate, OpenGateDoesNotBlock) {
  Simulator sim;
  Gate gate(sim, /*open=*/true);
  bool passed = false;
  auto proc = [&]() -> Task {
    co_await gate.opened();
    passed = true;
    co_return;
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_TRUE(passed);
}

TEST(Semaphore, LimitsConcurrency) {
  Simulator sim;
  Semaphore sem(sim, 2);
  int active = 0;
  int max_active = 0;
  auto worker = [&]() -> Task {
    co_await sem.acquire();
    ++active;
    max_active = std::max(max_active, active);
    co_await sim.delay(us(1));
    --active;
    sem.release();
  };
  for (int i = 0; i < 10; ++i) sim.spawn(worker());
  sim.run();
  EXPECT_EQ(max_active, 2);
  EXPECT_EQ(sem.available(), 2);
}

TEST(RateServer, SerializesAtConfiguredRate) {
  Simulator sim;
  RateServer server(sim, /*gb_s=*/1.0);  // 1 GB/s => 1 byte/ns
  TimePs done;
  auto proc = [&]() -> Task {
    co_await server.acquire(1000);
    done = sim.now();
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_EQ(done, us(1));
}

TEST(RateServer, FifoQueueingAccumulates) {
  Simulator sim;
  RateServer server(sim, 1.0);
  std::vector<TimePs> done;
  auto proc = [&]() -> Task {
    co_await server.acquire(500);
    done.push_back(sim.now());
  };
  sim.spawn(proc());
  sim.spawn(proc());
  sim.spawn(proc());
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], ns(500));
  EXPECT_EQ(done[1], ns(1000));
  EXPECT_EQ(done[2], ns(1500));
}

TEST(RateServer, PerOpOverheadCharged) {
  Simulator sim;
  RateServer server(sim, 1.0, /*per_op=*/ns(100));
  TimePs done;
  auto proc = [&]() -> Task {
    co_await server.acquire(100);
    co_await server.acquire(100);
    done = sim.now();
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_EQ(done, ns(400));
  EXPECT_EQ(server.total_bytes(), 200u);
  EXPECT_EQ(server.total_ops(), 2u);
}

TEST(RateServer, AchievesConfiguredBandwidthUnderLoad) {
  Simulator sim;
  RateServer server(sim, 6.9);
  std::uint64_t moved = 0;
  auto producer = [&]() -> Task {
    for (int i = 0; i < 1000; ++i) {
      co_await server.acquire(4096);
      moved += 4096;
    }
  };
  sim.spawn(producer());
  sim.run();
  const double gbs = gb_per_s(moved, sim.now());
  EXPECT_NEAR(gbs, 6.9, 0.05);
}

TEST(RateServer, SetRateMidFlightAppliesToSubsequentAcquiresOnly) {
  Simulator sim;
  RateServer server(sim, 1.0);  // 1 GB/s => 1 byte/ns
  std::vector<TimePs> done;
  auto proc = [&]() -> Task {
    co_await server.acquire(1000);  // occupies [0, 1000 ns) at the old rate
    done.push_back(sim.now());
    co_await server.acquire(1000);  // served at the doubled rate: 500 ns
    done.push_back(sim.now());
  };
  sim.spawn(proc());
  // Rate change lands while the first acquisition is in flight; its already
  // computed occupation window must not shrink retroactively.
  sim.after(ns(200), [&] { server.set_rate(2.0); });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], ns(1000));
  EXPECT_EQ(done[1], ns(1500));
}

TEST(RateServer, ZeroByteAcquireChargesPerOpOnly) {
  Simulator sim;
  RateServer server(sim, 1.0, /*per_op=*/ns(50));
  std::vector<TimePs> done;
  auto proc = [&]() -> Task {
    co_await server.acquire(0);
    done.push_back(sim.now());
    co_await server.acquire(0);
    done.push_back(sim.now());
  };
  sim.spawn(proc());
  sim.run();
  // Command-only traffic still serializes: per_op each, back to back.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], ns(50));
  EXPECT_EQ(done[1], ns(100));
  EXPECT_EQ(server.total_bytes(), 0u);
  EXPECT_EQ(server.total_ops(), 2u);
}

TEST(RateServer, ZeroByteAcquireWithoutPerOpCompletesImmediately) {
  Simulator sim;
  RateServer server(sim, 1.0);
  TimePs done;
  bool ran = false;
  auto proc = [&]() -> Task {
    co_await server.acquire(0);
    done = sim.now();
    ran = true;
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(done, TimePs{});
  EXPECT_EQ(server.total_ops(), 1u);
}

TEST(RateServer, QueuedWaitersResumeInHeapKeyOrder) {
  // 64 acquirers queue on one link at t=0, each twice (the second acquire
  // re-queues behind everyone's first). Every fourth moves zero bytes, so
  // its grant time equals its predecessor's. Plain delay() timers spawned
  // before or after an acquirer, and a zero-byte acquire on a per_op
  // server, land on the same picoseconds as link grants. The expected
  // order is the one the kernel produced when every waiter was linked into
  // the heap at its own suspension: by (time, suspension order).
  Simulator sim;
  RateServer link(sim, 1.0);          // 1 byte/ns, no per-op cost
  RateServer cmd(sim, 1.0, ns(100));  // command pipe: per_op only
  constexpr int kAcquirers = 64;
  auto bytes = [](int i) -> std::uint64_t {
    return i % 4 == 1 ? 0 : 100 * (1 + i % 3);
  };
  std::vector<TimePs> first(kAcquirers), second(kAcquirers);
  TimePs t;
  for (int i = 0; i < kAcquirers; ++i) first[i] = t = t + ns(bytes(i));
  for (int i = 0; i < kAcquirers; ++i) second[i] = t = t + ns(bytes(i));

  WaitGroup wg(sim);
  wg.add(kAcquirers);
  std::vector<int> order;
  TimePs all_done;
  auto acquirer = [&](int id) -> Task {
    co_await link.acquire(bytes(id));
    order.push_back(id);
    co_await link.acquire(bytes(id));
    order.push_back(1000 + id);
    wg.done();
  };
  auto timer = [&](int id, TimePs d) -> Task {
    co_await sim.delay(d);
    order.push_back(id);
  };
  auto command = [&](int id, TimePs d) -> Task {
    co_await sim.delay(d);
    co_await cmd.acquire(0);
    order.push_back(id);
  };
  auto joiner = [&]() -> Task {
    co_await wg.wait();
    all_done = sim.now();
  };
  sim.spawn(joiner());
  for (int i = 0; i < kAcquirers; ++i) {
    if (i % 8 == 0) sim.spawn(timer(2000 + i, first[i]));
    if (i == 32) sim.spawn(command(3000, first[i] - ns(100)));
    sim.spawn(acquirer(i));
    if (i % 8 == 4) sim.spawn(timer(2000 + i, first[i]));
    if (i % 8 == 6) sim.spawn(timer(2000 + i, second[i]));
  }
  sim.run();
  const std::vector<int> expected = {
      2000, 0, 1, 2, 3, 4, 2004, 5, 6, 7, 2008, 8, 9, 10, 11, 12, 2012,
      13, 14, 15, 2016, 16, 17, 18, 19, 20, 2020, 21, 22, 23, 2024, 24,
      25, 26, 27, 28, 2028, 29, 30, 31, 2032, 32, 33, 3000, 34, 35, 36,
      2036, 37, 38, 39, 2040, 40, 41, 42, 43, 44, 2044, 45, 46, 47, 2048,
      48, 49, 50, 51, 52, 2052, 53, 54, 55, 2056, 56, 57, 58, 59, 60,
      2060, 61, 62, 63, 1000, 1001, 1002, 1003, 1004, 1005, 2006, 1006,
      1007, 1008, 1009, 1010, 1011, 1012, 1013, 2014, 1014, 1015, 1016,
      1017, 1018, 1019, 1020, 1021, 2022, 1022, 1023, 1024, 1025, 1026,
      1027, 1028, 1029, 2030, 1030, 1031, 1032, 1033, 1034, 1035, 1036,
      1037, 2038, 1038, 1039, 1040, 1041, 1042, 1043, 1044, 1045, 2046,
      1046, 1047, 1048, 1049, 1050, 1051, 1052, 1053, 2054, 1054, 1055,
      1056, 1057, 1058, 1059, 1060, 1061, 2062, 1062, 1063};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(all_done, second.back());
  EXPECT_EQ(all_done, link.busy_until());
  EXPECT_EQ(link.total_ops(), 2u * kAcquirers);
}

TEST(RateServer, BusyTimeAndUtilizationAccounting) {
  Simulator sim;
  RateServer server(sim, 1.0, /*per_op=*/ns(100));
  auto proc = [&]() -> Task {
    co_await server.acquire(400);       // 100 + 400 = 500 ns occupied
    co_await sim.delay(ns(500));        // idle gap
    co_await server.acquire(0, ns(25)); // 100 + 0 + 25 = 125 ns occupied
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_EQ(server.busy_time(), ns(625));
  EXPECT_EQ(server.busy_until(), sim.now());
  EXPECT_NEAR(server.utilization(sim.now()), 625.0 / 1125.0, 1e-9);
  EXPECT_EQ(server.utilization(TimePs{}), 0.0);
  // busy_time is charged eagerly at acquire(), so utilization over a window
  // shorter than the committed occupation clamps at 1.
  EXPECT_EQ(server.utilization(ns(1)), 1.0);
}

// -- Intrusive scheduling API (EventNode) -----------------------------------

TEST(Simulator, IntrusiveNodesFireInScheduleOrderAtEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  struct Probe : EventNode {
    std::vector<int>* out = nullptr;
    int id = 0;
    static void run(EventNode& e) {
      auto& p = static_cast<Probe&>(e);
      p.out->push_back(p.id);
    }
  };
  Probe probes[4];
  for (int i = 0; i < 4; ++i) {
    probes[i].fire = &Probe::run;
    probes[i].out = &order;
    probes[i].id = i;
  }
  // Interleave two timestamps; within each, schedule-call order must hold.
  sim.schedule(probes[2], ns(20));
  sim.schedule(probes[0], ns(10));
  sim.schedule(probes[3], ns(20));
  sim.schedule(probes[1], ns(10));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.now(), ns(20));
}

TEST(Simulator, IntrusiveNodeIsReusableAfterFiring) {
  Simulator sim;
  int fires = 0;
  struct Probe : EventNode {
    int* count = nullptr;
    static void run(EventNode& e) { ++*static_cast<Probe&>(e).count; }
  };
  Probe p;
  p.fire = &Probe::run;
  p.count = &fires;
  sim.schedule(p, ns(1));
  sim.run();
  sim.schedule(p, ns(2));  // same node, relinked after it fired
  sim.run();
  EXPECT_EQ(fires, 2);
}

TEST(Simulator, WakeInterleavesWithTimedEventsDeterministically) {
  Simulator sim;
  std::vector<int> order;
  struct Probe : EventNode {
    std::vector<int>* out = nullptr;
    int id = 0;
    static void run(EventNode& e) {
      auto& p = static_cast<Probe&>(e);
      p.out->push_back(p.id);
    }
  };
  Probe a, b;
  a.fire = b.fire = &Probe::run;
  a.out = b.out = &order;
  a.id = 1;
  b.id = 2;
  // A closure scheduled at t=5 wakes `a` (zero-delay, so still t=5); the
  // pre-scheduled `b` at t=5 was linked first and must fire first.
  sim.at(ns(5), [&] { sim.wake(a); });
  sim.schedule(b, ns(5));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

// Regression: a producer parked in push() on a full channel must be woken by
// close() and see a failed push, instead of staying parked forever (its
// frame used to leak at ~Simulator, and pipelines never learned their
// downstream died).
TEST(Channel, CloseWakesBlockedProducer) {
  Simulator sim;
  Channel<int> ch(sim, 1);
  bool push1_ok = false;
  bool push2_ok = true;
  bool producer_finished = false;
  auto producer = [&]() -> Task {
    push1_ok = co_await ch.push(1);   // fills the channel
    push2_ok = co_await ch.push(2);   // parks: channel full, no consumer
    producer_finished = true;
  };
  sim.spawn(producer());
  sim.after(ns(10), [&] { ch.close(); });
  sim.run();
  EXPECT_TRUE(producer_finished);
  EXPECT_TRUE(push1_ok);
  EXPECT_FALSE(push2_ok);  // the parked value was dropped by close()
}

TEST(Channel, CloseWakesAllBlockedProducersInOrder) {
  Simulator sim;
  Channel<int> ch(sim, 1);
  std::vector<int> failed_order;
  auto producer = [&](int id) -> Task {
    if (!co_await ch.push(id)) {  // only the first fill succeeds
      failed_order.push_back(id);
      co_return;
    }
    if (!co_await ch.push(id + 100)) failed_order.push_back(id);
  };
  sim.spawn(producer(1));
  sim.spawn(producer(2));
  sim.after(ns(10), [&] { ch.close(); });
  sim.run();
  // Producer 1 filled the channel; both then parked (1 first) and close()
  // must wake them in park order with a failed push each.
  EXPECT_EQ(failed_order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace snacc::sim
