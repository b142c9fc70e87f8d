// Microbenchmark for the discrete-event kernel itself: raw event
// throughput, channel hand-off rate, future completion rate, and the grant
// rate of a rate server with thousands of queued acquirers.
//
// Unlike the paper-figure benches (which report *simulated* time), this one
// deliberately measures *wall-clock* throughput of the simulator -- it
// exists to keep the scheduler hot path honest ("runs as fast as the
// hardware allows" needs the kernel to scale to billions of events). All
// workloads are seeded/deterministic, so the event count per run is fixed;
// only the wall time varies.
//
// Usage:
//   sim_kernel_bench [--min-events-per-sec N]
// With the flag (used by the `perf`-labelled ctest entry) the process exits
// non-zero if event throughput falls below the floor -- a coarse regression
// guard, so the floor is generous.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/units.hpp"
#include "sim/channel.hpp"
#include "sim/cluster.hpp"
#include "sim/future.hpp"
#include "sim/mailbox.hpp"
#include "sim/rate_server.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace snacc::bench {
namespace {

// Wall-clock is the quantity under measurement here -- host events/second of
// the simulator kernel. It is printed and discarded, never fed back into
// simulated state, so reproducibility of the run itself is unaffected.
// snacc-lint: allow(nondeterminism): reporting-only host timing, see above.
double seconds_since(std::chrono::steady_clock::time_point t0) {
  // snacc-lint: allow(nondeterminism): reporting-only host timing, see above.
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// --------------------------------------------------------------------------
// Event throughput: many concurrent timer tasks with interleaved deadlines,
// exercising heap push/pop with a well-mixed key distribution.

sim::Task timer_task(sim::Simulator* sim, std::uint64_t seed, int rounds) {
  std::uint64_t lcg = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (int i = 0; i < rounds; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    co_await sim->delay(ps(1 + (lcg >> 33) % 5000));
  }
}

double bench_events(std::uint64_t* out_events) {
  constexpr int kTasks = 256;
  constexpr int kRounds = 20000;
  sim::Simulator sim;
  for (int t = 0; t < kTasks; ++t) {
    sim.spawn(timer_task(&sim, static_cast<std::uint64_t>(t) + 1, kRounds));
  }
  // snacc-lint: allow(nondeterminism): wall-clock is the measurement here
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const double dt = seconds_since(t0);
  *out_events = sim.events_processed();
  return static_cast<double>(sim.events_processed()) / dt;
}

// --------------------------------------------------------------------------
// Domain scaling: the same timer-task storm, with the 256 tasks split across
// a SimCluster's domains and a heartbeat token circling the domains through
// Mailbox edges (so the conservative sync machinery -- merges, window
// planning, barriers -- is on the measured path, not just independent
// free-running heaps). Fixed total work; wall-clock throughput vs domain
// count is the scaling curve.

sim::Task ring_seed(sim::Mailbox<int>* out, sim::Mailbox<int>* in, int laps) {
  co_await out->push(0);
  for (int i = 0; i < laps; ++i) {
    auto v = co_await in->pop();
    if (!v) break;
    if (i + 1 < laps) co_await out->push(*v + 1);
  }
  out->close();
}

sim::Task ring_forward(sim::Mailbox<int>* in, sim::Mailbox<int>* out) {
  while (auto v = co_await in->pop()) co_await out->push(*v);
  out->close();
}

double bench_events_domains(std::uint32_t domains, std::uint64_t* out_events) {
  constexpr int kTasks = 256;
  constexpr int kRounds = 20000;
  constexpr int kLaps = 2000;
  sim::SimCluster cluster(domains);
  for (int t = 0; t < kTasks; ++t) {
    sim::Domain& d = cluster.domain(static_cast<std::uint32_t>(t) % domains);
    d.spawn(timer_task(&d, static_cast<std::uint64_t>(t) + 1, kRounds));
  }
  std::vector<std::unique_ptr<sim::Mailbox<int>>> ring;
  if (domains > 1) {
    for (std::uint32_t i = 0; i < domains; ++i) {
      ring.push_back(std::make_unique<sim::Mailbox<int>>(
          cluster.domain(i), cluster.domain((i + 1) % domains), 4, ns(100)));
    }
    cluster.domain(0).spawn(
        ring_seed(ring.front().get(), ring.back().get(), kLaps));
    for (std::uint32_t i = 1; i < domains; ++i) {
      cluster.domain(i).spawn(ring_forward(ring[i - 1].get(), ring[i].get()));
    }
  }
  // snacc-lint: allow(nondeterminism): wall-clock is the measurement here
  const auto t0 = std::chrono::steady_clock::now();
  cluster.run();
  const double dt = seconds_since(t0);
  *out_events = cluster.events_processed();
  return static_cast<double>(cluster.events_processed()) / dt;
}

// --------------------------------------------------------------------------
// Channel hand-offs: producer/consumer pairs over a bounded channel, always
// alternating between full and empty so both waiter paths are exercised.

sim::Task producer(sim::Channel<std::uint64_t>* ch, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) co_await ch->push(i);
  ch->close();
}

sim::Task consumer(sim::Channel<std::uint64_t>* ch, std::uint64_t* sink) {
  while (auto v = co_await ch->pop()) *sink += *v;
}

double bench_channel(std::uint64_t* out_handoffs) {
  constexpr std::uint64_t kItems = 600000;
  sim::Simulator sim;
  sim::Channel<std::uint64_t> ch(sim, 16);
  std::uint64_t sink = 0;
  sim.spawn(producer(&ch, kItems));
  sim.spawn(consumer(&ch, &sink));
  // snacc-lint: allow(nondeterminism): wall-clock is the measurement here
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const double dt = seconds_since(t0);
  if (sink != kItems * (kItems - 1) / 2) {
    std::fprintf(stderr, "channel bench checksum mismatch\n");
    std::exit(1);
  }
  *out_handoffs = kItems;
  return static_cast<double>(kItems) / dt;
}

// --------------------------------------------------------------------------
// Futures: RPC-style one-shot promise/future pairs, single awaiter each
// (the dominant pattern: every PCIe read, NVMe completion, DRAM access).

sim::Task rpc_setter(sim::Simulator* sim, sim::Promise<std::uint64_t> p,
                     std::uint64_t v) {
  co_await sim->delay(ps(10));
  p.set(v);
}

sim::Task rpc_loop(sim::Simulator* sim, std::uint64_t n, std::uint64_t* sink) {
  for (std::uint64_t i = 0; i < n; ++i) {
    sim::Promise<std::uint64_t> p(*sim);
    sim::Future<std::uint64_t> f = p.future();
    sim->spawn(rpc_setter(sim, std::move(p), i));
    *sink += co_await f;
  }
}

double bench_futures(std::uint64_t* out_futures) {
  constexpr std::uint64_t kCalls = 400000;
  sim::Simulator sim;
  std::uint64_t sink = 0;
  sim.spawn(rpc_loop(&sim, kCalls, &sink));
  // snacc-lint: allow(nondeterminism): wall-clock is the measurement here
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const double dt = seconds_since(t0);
  if (sink != kCalls * (kCalls - 1) / 2) {
    std::fprintf(stderr, "future bench checksum mismatch\n");
    std::exit(1);
  }
  *out_futures = kCalls;
  return static_cast<double>(kCalls) / dt;
}

// --------------------------------------------------------------------------
// Rate-server queueing: thousands of coroutines acquire one link at once,
// round after round -- the shape of SSD page fetches queued behind one PCIe
// link in the Fig. 6 ingest path, where the queue, not the event count,
// sets the scheduler's cost.

sim::Task link_user(sim::RateServer* link, int rounds) {
  for (int i = 0; i < rounds; ++i) co_await link->acquire(4096);
}

double bench_rate_server(std::uint64_t* out_grants) {
  constexpr int kTasks = 4096;
  constexpr int kRounds = 64;
  sim::Simulator sim;
  sim::RateServer link(sim, 8.0);
  for (int t = 0; t < kTasks; ++t) sim.spawn(link_user(&link, kRounds));
  // snacc-lint: allow(nondeterminism): wall-clock is the measurement here
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const double dt = seconds_since(t0);
  if (link.total_ops() != std::uint64_t{kTasks} * kRounds) {
    std::fprintf(stderr, "rate server bench grant count mismatch\n");
    std::exit(1);
  }
  *out_grants = link.total_ops();
  return static_cast<double>(link.total_ops()) / dt;
}

}  // namespace
}  // namespace snacc::bench

int main(int argc, char** argv) {
  using namespace snacc::bench;
  double floor_eps = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-events-per-sec") == 0 && i + 1 < argc) {
      floor_eps = std::atof(argv[++i]);
    }
  }

  print_header("Simulation-kernel microbenchmark (wall-clock throughput)");

  // Best-of-3: each workload is deterministic, so runs differ only by OS
  // noise and the fastest run is the least-perturbed estimate.
  std::uint64_t events = 0, handoffs = 0, futures = 0, grants = 0;
  double eps = 0.0, hps = 0.0, fps = 0.0, gps = 0.0;
  const std::uint32_t kDomainSweep[] = {1, 2, 4};
  std::uint64_t dom_events[3] = {};
  double dom_eps[3] = {};
  for (int rep = 0; rep < 3; ++rep) {
    eps = std::max(eps, bench_events(&events));
    hps = std::max(hps, bench_channel(&handoffs));
    fps = std::max(fps, bench_futures(&futures));
    gps = std::max(gps, bench_rate_server(&grants));
    for (int i = 0; i < 3; ++i) {
      dom_eps[i] = std::max(
          dom_eps[i], bench_events_domains(kDomainSweep[i], &dom_events[i]));
    }
  }

  std::printf("  events        %12" PRIu64 "   %12.0f events/s\n", events, eps);
  std::printf("  chan handoffs %12" PRIu64 "   %12.0f handoffs/s\n", handoffs,
              hps);
  std::printf("  futures       %12" PRIu64 "   %12.0f futures/s\n", futures,
              fps);
  std::printf("  rs grants     %12" PRIu64 "   %12.0f grants/s\n", grants,
              gps);
  for (int i = 0; i < 3; ++i) {
    std::printf("  events (%u dom)%12" PRIu64 "   %12.0f events/s\n",
                kDomainSweep[i], dom_events[i], dom_eps[i]);
  }

  JsonReport rep("sim_kernel");
  rep.field("threads", std::thread::hardware_concurrency());
  rep.field("domains", 4);
  rep.metric("events_per_sec", eps);
  rep.metric("channel_handoffs_per_sec", hps);
  rep.metric("futures_per_sec", fps);
  rep.metric("rate_server_grants_per_sec", gps);
  for (int i = 0; i < 3; ++i) {
    rep.metric("events_per_sec_domains_" + std::to_string(kDomainSweep[i]),
               dom_eps[i]);
  }
  rep.write();

  if (floor_eps > 0.0 && eps < floor_eps) {
    std::fprintf(stderr,
                 "FAIL: events/s %.0f below required floor %.0f "
                 "(scheduler hot-path regression?)\n",
                 eps, floor_eps);
    return 1;
  }
  return 0;
}
