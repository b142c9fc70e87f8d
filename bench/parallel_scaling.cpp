// Parallel-kernel scaling sweep: aggregate wall-clock throughput of a
// SimCluster as the same multi-node topology is carved into 1/2/4/8 event
// domains.
//
// Two workloads:
//
//   * events  -- the sim_kernel timer storm, fixed 256-task total split
//                across domains with a heartbeat token ring through Mailbox
//                edges (pure kernel + sync-machinery scaling);
//   * goodput -- a fig4a-style sequential-write ingest per *node*: each node
//                is a full testbed (host + PCIe fabric + SSD + SNAcc card)
//                on its own domain, nodes exchange heartbeat frames over
//                cross-domain Ethernet wires (eth::Wire's two-domain
//                constructor), and the figure of merit is the sum of
//                per-node goodput divided by the wall time of the whole
//                cluster run.
//
// Like sim_kernel_bench this measures the simulator, not the system under
// study: per-node *simulated* goodput is identical at every domain count
// (seeded-merge determinism); only wall time changes. On a single-core
// machine the curve is flat or slightly negative (sync overhead with no
// parallelism to pay for it) -- the optional floor flags are therefore only
// enforced when the hardware can actually run 4 domains concurrently.
//
// Usage:
//   parallel_scaling [--min-speedup-4 X]
// Exits non-zero when hardware_concurrency >= 4 and the 4-domain aggregate
// events/s is below X times the 1-domain run.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/units.hpp"
#include "eth/mac.hpp"
#include "sim/cluster.hpp"
#include "sim/mailbox.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace snacc::bench {
namespace {

// snacc-lint: allow(nondeterminism): wall-clock is the measurement here
double seconds_since(std::chrono::steady_clock::time_point t0) {
  // snacc-lint: allow(nondeterminism): wall-clock is the measurement here
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// -- Workload 1: timer storm + heartbeat ring ------------------------------

sim::Task timer_task(sim::Domain* d, std::uint64_t seed, int rounds) {
  std::uint64_t lcg = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (int i = 0; i < rounds; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    co_await d->delay(ps(1 + (lcg >> 33) % 5000));
  }
}

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

struct EventsResult {
  double events_per_sec = 0;
  std::uint64_t events = 0;
};

EventsResult bench_events(std::uint32_t domains) {
  constexpr int kTasks = 256;
  constexpr int kRounds = 12000;
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
  EventsResult r;
  r.events = cluster.events_processed();
  r.events_per_sec = static_cast<double>(r.events) / dt;
  return r;
}

// -- Workload 2: one ingest node per domain, heartbeats over Ethernet ------

/// One testbed node bound to a cluster domain: System + SNAcc card, booted,
/// with a PE client driving a sequential write.
struct Node {
  std::unique_ptr<host::System> sys;
  std::unique_ptr<host::SnaccDevice> dev;
  std::unique_ptr<core::PeClient> pe;
  TimePs write_start;
  TimePs write_end;
  bool done = false;
};

constexpr std::uint64_t kBytesPerNode = 64 * MiB;

sim::Task node_ingest(Node* node, sim::Simulator* sim) {
  node->write_start = sim->now();
  co_await node->pe->write(Bytes{0}, Payload::phantom(kBytesPerNode));
  node->write_end = sim->now();
  node->done = true;
}

/// Periodic cross-node heartbeat: each node MACs a small frame to its ring
/// neighbour for the duration of the ingest, keeping the cross-domain wires
/// (and therefore the conservative windows) active.
sim::Task heartbeat_tx(eth::Mac* mac, sim::Simulator* sim, int beats) {
  for (int i = 0; i < beats; ++i) {
    co_await sim->delay(us(50));
    eth::Frame f(Payload::phantom(64), /*id=*/0, /*off=*/0, /*eoo=*/false);
    co_await mac->send(std::move(f));
  }
  mac->close_tx();
}

sim::Task heartbeat_rx(eth::Mac* mac, std::uint64_t* received) {
  for (;;) {
    std::optional<eth::Frame> f;
    co_await mac->recv_accounted(&f);
    if (!f) co_return;
    ++*received;
  }
}

struct GoodputResult {
  double aggregate_gb_s = 0;       // sum of per-node simulated goodput
  double wall_seconds = 0;         // cluster wall time for the whole run
  double sim_goodput_gb_s = 0;     // per-node goodput (identical across nodes)
  std::uint64_t heartbeats = 0;
  bool all_done = false;
};

GoodputResult bench_goodput(std::uint32_t domains) {
  sim::SimCluster cluster(domains);
  std::vector<Node> nodes(domains);
  for (std::uint32_t i = 0; i < domains; ++i) {
    host::SystemConfig sys_cfg;
    Node& n = nodes[i];
    n.sys = std::make_unique<host::System>(cluster.domain(i), sys_cfg);
    host::SnaccDeviceConfig cfg;
    cfg.streamer.variant = core::Variant::kHostDram;
    n.dev = std::make_unique<host::SnaccDevice>(*n.sys, cfg);
    n.sys->ssd().nand().force_mode(true);
  }
  // Boot each node on its own clock; no cross-domain traffic exists yet, so
  // driving the domains directly (outside cluster sync) is safe and leaves
  // every clock at exactly 1 s.
  for (Node& n : nodes) {
    bool booted = false;
    auto boot = [](host::SnaccDevice* dev, bool* flag) -> sim::Task {
      co_await dev->init();
      *flag = true;
    };
    n.sys->sim().spawn(boot(n.dev.get(), &booted));
    n.sys->sim().run_until(seconds(1));
    if (!booted) {
      std::fprintf(stderr, "parallel_scaling: node init failed\n");
      std::abort();
    }
    n.pe = std::make_unique<core::PeClient>(n.dev->streamer());
  }

  // Ring of full-duplex cross-domain Ethernet links between neighbours.
  EthProfile eth_profile;
  std::vector<std::unique_ptr<eth::Wire>> wires;
  std::vector<std::unique_ptr<eth::Mac>> macs;
  // One counter per receiving domain: the receivers run on different
  // domains' threads, so a shared counter would be a data race.
  std::vector<std::uint64_t> heartbeats_received(domains, 0);
  if (domains > 1) {
    for (std::uint32_t i = 0; i < domains; ++i) {
      sim::Domain& a = cluster.domain(i);
      sim::Domain& b = cluster.domain((i + 1) % domains);
      auto fwd = std::make_unique<eth::Wire>(a, b, eth_profile);  // a -> b
      auto rev = std::make_unique<eth::Wire>(b, a, eth_profile);  // b -> a
      auto mac_a = std::make_unique<eth::Mac>(a, eth_profile, *fwd, *rev,
                                              "hb-tx");
      auto mac_b = std::make_unique<eth::Mac>(b, eth_profile, *rev, *fwd,
                                              "hb-rx");
      mac_a->start();
      mac_b->start();
      a.spawn(heartbeat_tx(mac_a.get(), &a, /*beats=*/200));
      b.spawn(heartbeat_rx(mac_b.get(),
                           &heartbeats_received[(i + 1) % domains]));
      wires.push_back(std::move(fwd));
      wires.push_back(std::move(rev));
      macs.push_back(std::move(mac_a));
      macs.push_back(std::move(mac_b));
    }
  }

  for (std::uint32_t i = 0; i < domains; ++i) {
    cluster.domain(i).spawn(node_ingest(&nodes[i], &nodes[i].sys->sim()));
  }

  // snacc-lint: allow(nondeterminism): wall-clock is the measurement here
  const auto t0 = std::chrono::steady_clock::now();
  cluster.run_until(seconds(11));
  GoodputResult r;
  r.wall_seconds = seconds_since(t0);
  r.heartbeats = std::accumulate(heartbeats_received.begin(),
                                 heartbeats_received.end(), std::uint64_t{0});
  r.all_done = true;
  for (const Node& n : nodes) {
    if (!n.done) {
      r.all_done = false;
      continue;
    }
    const double gb_s = gb_per_s(kBytesPerNode, n.write_end - n.write_start);
    r.sim_goodput_gb_s = gb_s;  // identical across nodes (same seed/config)
    r.aggregate_gb_s += gb_s;
  }
  return r;
}

}  // namespace
}  // namespace snacc::bench

int main(int argc, char** argv) {
  using namespace snacc;
  using namespace snacc::bench;
  double min_speedup_4 = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-speedup-4") == 0 && i + 1 < argc) {
      min_speedup_4 = std::atof(argv[++i]);
    }
  }

  print_header("Parallel scaling -- events/s and fig4a-style goodput vs domains");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("  hardware threads: %u\n\n", hw);

  const std::uint32_t sweep[] = {1, 2, 4, 8};
  JsonReport rep("parallel_scaling");
  rep.field("threads", hw);
  rep.field("domains", 8);

  double eps1 = 0.0, eps4 = 0.0;
  for (std::uint32_t d : sweep) {
    // Best-of-2: deterministic workload, wall time varies with OS noise.
    EventsResult er;
    for (int r = 0; r < 2; ++r) {
      EventsResult t = bench_events(d);
      if (t.events_per_sec > er.events_per_sec) er = t;
    }
    GoodputResult gr = bench_goodput(d);
    if (d == 1) eps1 = er.events_per_sec;
    if (d == 4) eps4 = er.events_per_sec;
    std::printf(
        "  %u domain(s): %12.0f events/s   aggregate %6.2f GB/s "
        "(per-node %5.2f GB/s sim, %.2fs wall, %" PRIu64 " heartbeats)%s\n",
        d, er.events_per_sec, gr.aggregate_gb_s, gr.sim_goodput_gb_s,
        gr.wall_seconds, gr.heartbeats, gr.all_done ? "" : "  [INCOMPLETE]");
    const std::string suffix = "_domains_" + std::to_string(d);
    rep.metric("events_per_sec" + suffix, er.events_per_sec);
    rep.metric("aggregate_goodput_gb_s" + suffix, gr.aggregate_gb_s);
    rep.metric("node_goodput_gb_s" + suffix, gr.sim_goodput_gb_s);
    rep.metric("goodput_wall_s" + suffix, gr.wall_seconds);
    if (!gr.all_done) {
      std::fprintf(stderr, "FAIL: ingest incomplete at %u domains\n", d);
      return 1;
    }
  }
  const double speedup4 = eps1 > 0.0 ? eps4 / eps1 : 0.0;
  std::printf("\n  events/s speedup at 4 domains vs 1: %.2fx\n", speedup4);
  rep.metric("events_speedup_4", speedup4);
  rep.write();

  if (min_speedup_4 > 0.0 && hw >= 4 && speedup4 < min_speedup_4) {
    std::fprintf(stderr,
                 "FAIL: 4-domain speedup %.2fx below required %.2fx on a "
                 "%u-thread machine (parallel kernel regression?)\n",
                 speedup4, min_speedup_4, hw);
    return 1;
  }
  if (min_speedup_4 > 0.0 && hw < 4) {
    std::printf("  (speedup floor skipped: only %u hardware threads)\n", hw);
  }
  return 0;
}
