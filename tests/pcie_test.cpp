// Unit tests for the PCIe fabric: routing, BAR mapping, read/write data
// integrity, link-bandwidth conservation, latency selection (host vs P2P),
// IOMMU enforcement and traffic accounting.
#include <stdexcept>

#include <gtest/gtest.h>

#include "common/calibration.hpp"
#include "pcie/fabric.hpp"
#include "pcie/memory_target.hpp"
#include "sim/task.hpp"

namespace snacc::pcie {
namespace {

struct Fixture : ::testing::Test {
  Fixture()
      : fabric(sim, PcieProfile{}),
        host_mem(sim, 64 * MiB),
        dev_mem(sim, 16 * MiB) {
    root = fabric.add_port("root", 64.0);
    fabric.set_root_port(root);
    dev = fabric.add_port("dev", 13.0);
    peer = fabric.add_port("peer", 7.0);
    fabric.map(Addr{}, Bytes{64 * MiB}, &host_mem, root, MemKind::kHostDram);
    fabric.map(Addr{0x1000'0000}, Bytes{16 * MiB}, &dev_mem, dev,
               MemKind::kFpgaUram);
  }

  sim::Simulator sim;
  Fabric fabric;
  HostMemory host_mem;
  HostMemory dev_mem;  // reuse HostMemory as a simple BAR-backed store
  PortId root{};
  PortId dev{};
  PortId peer{};
};

TEST_F(Fixture, WriteThenReadRoundTripsThroughHostMemory) {
  Payload data = Payload::filled(8192, 0x3C);
  bool done = false;
  Payload got;
  auto io = [&]() -> sim::Task {
    auto w = fabric.write(root, Addr{0x1000}, data);
    co_await w;
    auto r = fabric.read(root, Addr{0x1000}, Bytes{8192});
    auto rr = co_await r;
    got = std::move(rr.data);
    done = rr.ok;
  };
  sim.spawn(io());
  sim.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(got.content_equals(data));
}

TEST_F(Fixture, RoutingSelectsWindowByAddress) {
  bool ok_dev = false;
  auto io = [&]() -> sim::Task {
    auto w = fabric.write(root, Addr{0x1000'0000} + Bytes{4096}, Payload::filled(64, 9));
    co_await w;
    auto r = fabric.read(root, Addr{0x1000'0000} + Bytes{4096}, Bytes{64});
    auto rr = co_await r;
    ok_dev = rr.ok && rr.data.content_equals(Payload::filled(64, 9));
  };
  sim.spawn(io());
  sim.run();
  EXPECT_TRUE(ok_dev);
  // Host memory at the same local offset is untouched.
  EXPECT_EQ(host_mem.store().resident_pages(), 0u);
}

TEST_F(Fixture, UnmappedAddressFailsTheRead) {
  bool got_not_ok = false;
  auto io = [&]() -> sim::Task {
    auto r = fabric.read(root, Addr{0x9999'0000'0000}, Bytes{64});
    auto rr = co_await r;
    got_not_ok = !rr.ok && !rr.data.has_data();
  };
  sim.spawn(io());
  sim.run();
  EXPECT_TRUE(got_not_ok);
  EXPECT_EQ(fabric.unmapped_errors(), 1u);
}

TEST_F(Fixture, DeviceInitiatedAccessRequiresIommuGrant) {
  std::uint64_t faults_before = fabric.iommu().faults();
  bool first_failed = false;
  bool second_ok = false;
  auto io = [&]() -> sim::Task {
    auto r1 = fabric.read(dev, Addr{0x2000}, Bytes{512});
    auto rr1 = co_await r1;
    first_failed = !rr1.ok;
    fabric.iommu().grant({dev, Addr{}, Bytes{64 * MiB}, true, true});
    auto r2 = fabric.read(dev, Addr{0x2000}, Bytes{512});
    auto rr2 = co_await r2;
    second_ok = rr2.ok;
  };
  sim.spawn(io());
  sim.run();
  EXPECT_TRUE(first_failed);
  EXPECT_TRUE(second_ok);
  EXPECT_EQ(fabric.iommu().faults(), faults_before + 1);
}

TEST_F(Fixture, ReadOnlyGrantRejectsWrites) {
  fabric.iommu().grant({dev, Addr{}, Bytes{64 * MiB}, true, false});
  auto io = [&]() -> sim::Task {
    auto w = fabric.write(dev, Addr{0x3000}, Payload::filled(4096, 7));
    co_await w;
  };
  sim.spawn(io());
  sim.run();
  EXPECT_EQ(fabric.iommu().faults(), 1u);
  EXPECT_EQ(host_mem.store().resident_pages(), 0u);  // write was dropped
}

TEST_F(Fixture, DisabledIommuAllowsEverything) {
  fabric.iommu().set_enabled(false);
  bool ok = false;
  auto io = [&]() -> sim::Task {
    auto w = fabric.write(dev, Addr{0x4000}, Payload::filled(4096, 1));
    co_await w;
    auto r = fabric.read(peer, Addr{0x4000}, Bytes{4096});
    auto rr = co_await r;
    ok = rr.ok;
  };
  sim.spawn(io());
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(fabric.iommu().faults(), 0u);
}

TEST_F(Fixture, HostPathIsFasterThanPeerToPeer) {
  PcieProfile profile;
  EXPECT_EQ(fabric.read_rtt(root, dev), profile.host_read_rtt);
  EXPECT_EQ(fabric.read_rtt(dev, root), profile.host_read_rtt);
  EXPECT_EQ(fabric.read_rtt(dev, peer), profile.p2p_read_rtt);
  EXPECT_GT(profile.p2p_read_rtt, profile.host_read_rtt);
}

TEST_F(Fixture, TrafficAccountingMatchesTransfers) {
  fabric.iommu().grant({dev, Addr{}, Bytes{64 * MiB}, true, true});
  auto io = [&]() -> sim::Task {
    for (int i = 0; i < 4; ++i) {
      auto w = fabric.write(dev, Addr{0x8000} + Bytes{4096} * std::uint64_t(i),
                            Payload::phantom(4096));
      co_await w;
    }
    auto r = fabric.read(dev, Addr{0x8000}, Bytes{8192});
    auto rr = co_await r;
    (void)rr;
  };
  sim.spawn(io());
  sim.run();
  const PathStats& stats = fabric.path(dev, root);
  EXPECT_EQ(stats.write_bytes, 4u * 4096);
  EXPECT_EQ(stats.read_bytes, 8192u);
  EXPECT_EQ(stats.writes, 4u);
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(fabric.total_bytes(), 4u * 4096 + 8192);
}

TEST_F(Fixture, BulkWritesAreLinkRateLimited) {
  // 64 MiB through the dev link at 13 GB/s (plus header overhead) should
  // take at least bytes/rate.
  const std::uint64_t total = 64 * MiB;
  fabric.iommu().grant({dev, Addr{}, Bytes{64 * MiB}, true, true});
  TimePs t_end;
  auto io = [&]() -> sim::Task {
    sim::WaitGroup wg(sim);
    const std::uint64_t chunk = 1 * MiB;
    wg.add(static_cast<int>(total / chunk));
    for (std::uint64_t off = 0; off < total; off += chunk) {
      auto issue = [](Fabric* f, PortId p, pcie::Addr a, std::uint64_t n,
                      sim::WaitGroup* g) -> sim::Task {
        auto w = f->write(p, a, Payload::phantom(n));
        co_await w;
        g->done();
      };
      sim.spawn(issue(&fabric, dev, Addr{off % (32 * MiB)}, chunk, &wg));
    }
    co_await wg.wait();
    t_end = sim.now();
  };
  sim.spawn(io());
  sim.run();
  const double gbs = gb_per_s(total, t_end);
  EXPECT_LT(gbs, 13.0);
  EXPECT_GT(gbs, 11.5);
}

TEST_F(Fixture, OverlappingDegradeWindowsKeepTheNewestRate) {
  // Window A (0.5x, 10 us) opens at t=0; window B (0.25x, 100 us) opens at
  // t=5 us. A's end at t=10 us must not restore the link under B, so a
  // write from `dev` at t=20 us still serializes at 0.25 x 13 GB/s; after
  // B ends (t=105 us) the link is back at nominal.
  fabric.iommu().grant({dev, Addr{}, Bytes{64 * MiB}, true, true});
  const std::uint64_t bytes = 64 * KiB;
  TimePs inside_b;
  TimePs after_b;
  auto io = [&]() -> sim::Task {
    fabric.degrade_link(dev, 0.5, us(10));
    co_await sim.delay(us(5));
    fabric.degrade_link(dev, 0.25, us(100));
    co_await sim.delay_until(us(20));
    TimePs t0 = sim.now();
    co_await fabric.write(dev, Addr{}, Payload::phantom(bytes));
    inside_b = sim.now() - t0;
    co_await sim.delay_until(us(110));
    t0 = sim.now();
    co_await fabric.write(dev, Addr{}, Payload::phantom(bytes));
    after_b = sim.now() - t0;
  };
  sim.spawn(io());
  sim.run();
  EXPECT_GE(inside_b, transfer_time(bytes, 13.0 * 0.25));
  EXPECT_LT(after_b, transfer_time(bytes, 13.0 * 0.5));
}

TEST_F(Fixture, KindAtReportsWindowKind) {
  EXPECT_EQ(fabric.kind_at(Addr{0x100}), MemKind::kHostDram);
  EXPECT_EQ(fabric.kind_at(Addr{0x1000'0000}), MemKind::kFpgaUram);
  EXPECT_EQ(fabric.kind_at(Addr{0x7777'0000'0000}), MemKind::kDevice);
  EXPECT_EQ(fabric.owner_at(Addr{0x100}), root);
  EXPECT_EQ(fabric.owner_at(Addr{0x1000'0000}), dev);
}

TEST_F(Fixture, OverlappingMapIsRejected) {
  HostMemory extra(sim, 1 * MiB);
  // Straddles the start of the device window, sits inside it, and
  // straddles its end.
  EXPECT_THROW(fabric.map(Addr{0x0FFF'0000}, Bytes{1 * MiB}, &extra, peer),
               std::invalid_argument);
  EXPECT_THROW(fabric.map(Addr{0x1010'0000}, Bytes{1 * MiB}, &extra, peer),
               std::invalid_argument);
  EXPECT_THROW(fabric.map(Addr{0x1000'0000 + 16 * MiB - 1}, Bytes{1 * MiB},
                          &extra, peer),
               std::invalid_argument);
  EXPECT_EQ(fabric.owner_at(Addr{0x1010'0000}), dev);
  // Adjacent windows touch but do not overlap.
  fabric.map(Addr{0x1000'0000 + 16 * MiB}, Bytes{1 * MiB}, &extra, peer);
  EXPECT_EQ(fabric.owner_at(Addr{0x1000'0000 + 16 * MiB}), peer);
}

TEST_F(Fixture, UnmapRemovesWindow) {
  fabric.unmap(Addr{0x1000'0000});
  bool not_ok = false;
  auto io = [&]() -> sim::Task {
    auto r = fabric.read(root, Addr{0x1000'0000}, Bytes{64});
    auto rr = co_await r;
    not_ok = !rr.ok;
  };
  sim.spawn(io());
  sim.run();
  EXPECT_TRUE(not_ok);
}

}  // namespace
}  // namespace snacc::pcie
