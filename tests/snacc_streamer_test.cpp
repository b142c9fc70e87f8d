// End-to-end tests of the SNAcc streamer through the full simulated system:
// PE streams -> streamer -> PCIe P2P -> NVMe SSD, for all three buffer
// variants (parameterized), plus the out-of-order retirement extension.
#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "host/snacc_device.hpp"
#include "host/system.hpp"
#include "snacc/pe_client.hpp"

namespace snacc {
namespace {

using core::PeClient;
using core::Variant;
using host::SnaccDevice;
using host::SnaccDeviceConfig;
using host::System;

class StreamerFixture : public ::testing::TestWithParam<Variant> {
 protected:
  void build(bool out_of_order = false) {
    SnaccDeviceConfig cfg;
    cfg.streamer.variant = GetParam();
    cfg.streamer.out_of_order = out_of_order;
    build_with(cfg);
  }

  /// Recovery-enabled variant with fast retry/watchdog knobs for tests.
  void build_recovery(bool out_of_order = false, std::uint8_t max_retries = 3) {
    SnaccDeviceConfig cfg;
    cfg.streamer.variant = GetParam();
    cfg.streamer.out_of_order = out_of_order;
    cfg.streamer.recovery = true;
    cfg.streamer.max_retries = max_retries;
    cfg.streamer.retry_backoff = us(2);
    build_with(cfg);
  }

  void build_with(SnaccDeviceConfig cfg) {
    dev_ = std::make_unique<SnaccDevice>(sys_, cfg);
    bool done = false;
    auto boot = [&]() -> sim::Task {
      co_await dev_->init();
      done = true;
    };
    sys_.sim().spawn(boot());
    run_for(seconds(1));
    ASSERT_TRUE(done) << "SNAcc init did not finish";
    client_ = std::make_unique<PeClient>(dev_->streamer());
  }

  void run_for(TimePs d) { sys_.sim().run_until(sys_.sim().now() + d); }

  Payload random_payload(std::uint64_t size, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<std::byte> v(size);
    for (auto& b : v) b = static_cast<std::byte>(rng.next() & 0xFF);
    return Payload::bytes(std::move(v));
  }

  System sys_;
  std::unique_ptr<SnaccDevice> dev_;
  std::unique_ptr<PeClient> client_;
};

TEST_P(StreamerFixture, InitCreatesQueuesAutonomously) {
  build();
  EXPECT_TRUE(dev_->initialized());
  EXPECT_TRUE(sys_.ssd().ready());
}

TEST_P(StreamerFixture, SmallWriteReadRoundTrip) {
  build();
  Payload data = random_payload(4096, 1);
  bool done = false;
  Payload got;
  auto io = [&]() -> sim::Task {
    co_await client_->write(Bytes{40960}, data);
    co_await client_->read(Bytes{40960}, Bytes{4096}, &got);
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(1));
  ASSERT_TRUE(done);
  ASSERT_TRUE(got.has_data());
  EXPECT_TRUE(got.content_equals(data));
}

TEST_P(StreamerFixture, MegabyteCommandRoundTripExercisesPrpList) {
  build();
  Payload data = random_payload(1 * MiB, 2);
  bool done = false;
  Payload got;
  auto io = [&]() -> sim::Task {
    co_await client_->write(Bytes{8 * MiB}, data);
    co_await client_->read(Bytes{8 * MiB}, Bytes{1 * MiB}, &got);
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(2));
  ASSERT_TRUE(done);
  ASSERT_TRUE(got.has_data());
  EXPECT_TRUE(got.content_equals(data));
  // One write + one read NVMe command, both 1 MiB.
  EXPECT_EQ(dev_->streamer().commands_submitted(), 2u);
}

TEST_P(StreamerFixture, MultiMegabyteWriteSplitsAtBoundaries) {
  build();
  Payload data = random_payload(3 * MiB + 8 * KiB, 3);
  bool done = false;
  Payload got;
  auto io = [&]() -> sim::Task {
    co_await client_->write(Bytes{0}, data);
    co_await client_->read(Bytes{0}, Bytes{data.size()}, &got);
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(3));
  ASSERT_TRUE(done);
  EXPECT_TRUE(got.content_equals(data));
  // Write: 4 sub-commands (1+1+1+8k); read: 4.
  EXPECT_EQ(dev_->streamer().commands_submitted(), 8u);
}

TEST_P(StreamerFixture, UnalignedReadReturnsExactBytes) {
  build();
  Payload data = random_payload(64 * KiB, 4);
  bool done = false;
  Payload got;
  auto io = [&]() -> sim::Task {
    co_await client_->write(Bytes{1 * MiB}, data);
    // Read 100 bytes starting 5000 bytes into the written region.
    co_await client_->read(Bytes{1 * MiB + 5000}, Bytes{100}, &got);
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(1));
  ASSERT_TRUE(done);
  ASSERT_TRUE(got.has_data());
  EXPECT_TRUE(got.content_equals(data.slice(5000, 100)));
}

TEST_P(StreamerFixture, PipelinedReadsReturnInIssueOrder) {
  build();
  // Prime the device.
  bool primed = false;
  auto prime = [&]() -> sim::Task {
    co_await client_->write(Bytes{0}, random_payload(256 * KiB, 5));
    primed = true;
  };
  sys_.sim().spawn(prime());
  run_for(seconds(1));
  ASSERT_TRUE(primed);

  bool done = false;
  std::vector<Payload> results(8);
  auto io = [&]() -> sim::Task {
    for (std::uint64_t i = 0; i < 8; ++i) {
      co_await client_->start_read(Bytes{i * 32 * KiB % (224 * KiB)}, Bytes{16 * KiB});
    }
    for (std::uint64_t i = 0; i < 8; ++i) {
      co_await client_->collect_read(&results[i]);
    }
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(1));
  ASSERT_TRUE(done);
  for (const auto& r : results) EXPECT_EQ(r.size(), 16 * KiB);
}

TEST_P(StreamerFixture, SequentialWriteBandwidthMatchesVariant) {
  build();
  sys_.ssd().nand().force_mode(/*fast=*/true);
  bool done = false;
  TimePs t0;
  TimePs t1;
  const std::uint64_t total = 256 * MiB;
  auto io = [&]() -> sim::Task {
    t0 = sys_.sim().now();
    co_await client_->write(Bytes{0}, Payload::phantom(total));
    t1 = sys_.sim().now();
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(5));
  ASSERT_TRUE(done);
  const double gbs = gb_per_s(total, t1 - t0);
  // Paper Fig. 4a fast-mode targets: host 6.24, URAM 5.6, on-board 4.8.
  switch (GetParam()) {
    case Variant::kHostDram:
      EXPECT_NEAR(gbs, 6.24, 0.45);
      break;
    case Variant::kUram:
      EXPECT_NEAR(gbs, 5.60, 0.45);
      break;
    case Variant::kOnboardDram:
      EXPECT_NEAR(gbs, 4.80, 0.45);
      break;
    case Variant::kHbm:
      ADD_FAILURE() << "no Fig. 4a target for the HBM extension";
      break;
  }
}

TEST_P(StreamerFixture, SequentialReadSaturatesLink) {
  build();
  bool done = false;
  TimePs t0;
  TimePs t1;
  const std::uint64_t total = 256 * MiB;
  auto io = [&]() -> sim::Task {
    co_await client_->write(Bytes{0}, Payload::phantom(total));
    t0 = sys_.sim().now();
    co_await client_->read(Bytes{0}, Bytes{total}, nullptr);
    t1 = sys_.sim().now();
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(10));
  ASSERT_TRUE(done);
  const double gbs = gb_per_s(total, t1 - t0);
  // Paper Fig. 4a: ~6.9 GB/s for every variant.
  EXPECT_GT(gbs, 6.2);
  EXPECT_LT(gbs, 7.2);
}

TEST_P(StreamerFixture, WritesToDeviceMatchMediaContents) {
  build();
  Payload data = random_payload(128 * KiB, 6);
  bool done = false;
  auto io = [&]() -> sim::Task {
    co_await client_->write(Bytes{2 * MiB}, data);
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(1));
  ASSERT_TRUE(done);
  Payload media = sys_.ssd().media().read(2 * MiB, 128 * KiB);
  ASSERT_TRUE(media.has_data());
  EXPECT_TRUE(media.content_equals(data));
}

TEST_P(StreamerFixture, NoCpuInvolvementAfterInit) {
  build();
  const std::uint64_t root_writes_before =
      sys_.fabric().path(sys_.root_port(), sys_.ssd().port()).writes;
  bool done = false;
  auto io = [&]() -> sim::Task {
    co_await client_->write(Bytes{0}, Payload::phantom(32 * MiB));
    co_await client_->read(Bytes{0}, Bytes{32 * MiB}, nullptr);
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(5));
  ASSERT_TRUE(done);
  // Sec. 6.3: after setup the host CPU issues no further transactions.
  EXPECT_EQ(sys_.fabric().path(sys_.root_port(), sys_.ssd().port()).writes,
            root_writes_before);
}

TEST_P(StreamerFixture, OutOfOrderExtensionPreservesDataAndOrder) {
  build(/*out_of_order=*/true);
  Payload data = random_payload(512 * KiB, 7);
  bool done = false;
  Payload got;
  auto io = [&]() -> sim::Task {
    co_await client_->write(Bytes{0}, data);
    co_await client_->read(Bytes{0}, Bytes{512 * KiB}, &got);
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(2));
  ASSERT_TRUE(done);
  EXPECT_TRUE(got.content_equals(data));
}

// ---------------------------------------------------------------------------
// Fault injection + recovery (docs/FAULTS.md)

TEST_P(StreamerFixture, MidStreamNandFaultRecoversInOrder) {
  build_recovery();
  Payload data = random_payload(256 * KiB, 21);
  bool done = false;
  bool err = true;
  Payload got;
  auto io = [&]() -> sim::Task {
    co_await client_->write(Bytes{0}, data);
    // Fail the 6th page read of the read phase: the command's error CQE
    // triggers one streamer retry, which re-reads the range cleanly.
    sys_.ssd().nand().set_read_fault_plan(fault::FaultPlan::at({5}));
    co_await client_->read(Bytes{0}, Bytes{256 * KiB}, &got, &err);
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(2));
  ASSERT_TRUE(done);
  EXPECT_FALSE(err);
  EXPECT_TRUE(got.content_equals(data));
  EXPECT_EQ(dev_->streamer().retries(), 1u);
  EXPECT_EQ(dev_->streamer().recovered(), 1u);
  EXPECT_EQ(dev_->streamer().quarantined(), 0u);
  EXPECT_EQ(dev_->streamer().errors(), 1u);
  EXPECT_EQ(sys_.ssd().read_errors(), 1u);
}

TEST_P(StreamerFixture, ExhaustedRetriesDeliverErrorNotHang) {
  build_recovery(/*out_of_order=*/false, /*max_retries=*/2);
  bool done = false;
  bool err = false;
  Payload got;
  auto io = [&]() -> sim::Task {
    co_await client_->write(Bytes{0}, random_payload(16 * KiB, 22));
    // Every page read fails: retries exhaust and the entry is quarantined.
    sys_.ssd().nand().set_read_fault_plan(fault::FaultPlan::rate(1.0));
    co_await client_->read(Bytes{0}, Bytes{16 * KiB}, &got, &err);
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(2));
  ASSERT_TRUE(done) << "exhausted retries must not hang the stream";
  EXPECT_TRUE(err);
  // Stream framing stays intact: placeholder beats with the error TUSER tag.
  EXPECT_EQ(got.size(), 16 * KiB);
  EXPECT_EQ(dev_->streamer().retries(), 2u);
  EXPECT_EQ(dev_->streamer().quarantined(), 1u);
  EXPECT_EQ(dev_->streamer().recovered(), 0u);
  EXPECT_EQ(dev_->streamer().errors(), 3u);  // initial attempt + 2 retries
}

TEST_P(StreamerFixture, TransientProgramFailureRecoversWrite) {
  build_recovery();
  Payload data = random_payload(8 * KiB, 23);
  bool done = false;
  bool err = true;
  auto io = [&]() -> sim::Task {
    // First NAND ingest fails; the retry rewrites the same buffer slot.
    sys_.ssd().nand().set_program_fault_plan(fault::FaultPlan::at({0}));
    co_await client_->write(Bytes{128 * KiB}, data, Bytes{16 * KiB}, &err);
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(2));
  ASSERT_TRUE(done);
  EXPECT_FALSE(err);
  EXPECT_EQ(dev_->streamer().retries(), 1u);
  EXPECT_EQ(dev_->streamer().recovered(), 1u);
  Payload media = sys_.ssd().media().read(128 * KiB, 8 * KiB);
  ASSERT_TRUE(media.has_data());
  EXPECT_TRUE(media.content_equals(data));
}

TEST_P(StreamerFixture, PersistentProgramFailurePoisonsResponseToken) {
  build_recovery(/*out_of_order=*/false, /*max_retries=*/1);
  bool done = false;
  bool err = false;
  auto io = [&]() -> sim::Task {
    sys_.ssd().nand().set_program_fault_plan(fault::FaultPlan::rate(1.0));
    co_await client_->write(Bytes{0}, Payload::filled(8 * KiB, 0x3C), Bytes{16 * KiB},
                           &err);
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(2));
  ASSERT_TRUE(done) << "a quarantined write must still produce its token";
  EXPECT_TRUE(err);
  EXPECT_EQ(dev_->streamer().quarantined(), 1u);
  EXPECT_EQ(sys_.ssd().write_errors(), 2u);  // initial + 1 retry
}

TEST_P(StreamerFixture, WatchdogRecoversDroppedCompletion) {
  SnaccDeviceConfig cfg;
  cfg.streamer.variant = GetParam();
  cfg.streamer.recovery = true;
  cfg.streamer.retry_backoff = us(2);
  cfg.streamer.cmd_timeout = us(400);
  cfg.streamer.watchdog_period = us(50);
  build_with(cfg);
  Payload data = random_payload(4 * KiB, 24);
  bool done = false;
  bool err = true;
  Payload got;
  auto io = [&]() -> sim::Task {
    co_await client_->write(Bytes{64 * KiB}, data);
    // Drop exactly the next CQE posted into the FPGA's CQ window: the IOMMU
    // permission flip is windowed to the reorder buffer's CQE landing zone,
    // so the completion is lost in flight and only the watchdog can save it.
    sys_.fabric().iommu().set_fault_plan(fault::FaultPlan::at({0}),
                                         dev_->bar0() + SnaccDevice::kCqWindow,
                                         dev_->streamer().cq_window_bytes());
    co_await client_->read(Bytes{64 * KiB}, Bytes{4 * KiB}, &got, &err);
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(2));
  ASSERT_TRUE(done) << "a lost completion must not hang the stream";
  EXPECT_FALSE(err);
  EXPECT_TRUE(got.content_equals(data));
  EXPECT_EQ(dev_->streamer().watchdog_timeouts(), 1u);
  EXPECT_EQ(dev_->streamer().retries(), 1u);
  EXPECT_EQ(dev_->streamer().recovered(), 1u);
  EXPECT_EQ(sys_.fabric().iommu().injected_faults(), 1u);
  // Satellite: the silent posted-write drop is now observable.
  ASSERT_TRUE(sys_.fabric().last_fault().has_value());
  EXPECT_EQ(sys_.fabric().last_fault()->kind, pcie::FaultKind::kIommuWriteDrop);
  EXPECT_EQ(sys_.fabric().last_fault()->initiator, sys_.ssd().port());
}

TEST_P(StreamerFixture, OutOfOrderRecoveryKeepsPipelinedReadsInOrder) {
  build_recovery(/*out_of_order=*/true);
  Payload data = random_payload(256 * KiB, 25);
  bool done = false;
  std::vector<Payload> results(8);
  std::vector<bool> errs(8, true);
  auto io = [&]() -> sim::Task {
    co_await client_->write(Bytes{0}, data);
    sys_.ssd().nand().set_read_fault_plan(fault::FaultPlan::at({9}));
    for (std::uint64_t i = 0; i < 8; ++i) {
      co_await client_->start_read(Bytes{i * 32 * KiB}, Bytes{32 * KiB});
    }
    for (std::uint64_t i = 0; i < 8; ++i) {
      bool e = true;
      co_await client_->collect_read(&results[i], &e);
      errs[i] = e;
    }
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(2));
  ASSERT_TRUE(done);
  EXPECT_EQ(dev_->streamer().retries(), 1u);
  EXPECT_EQ(dev_->streamer().quarantined(), 0u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(errs[i]) << "read " << i;
    EXPECT_TRUE(results[i].content_equals(data.slice(i * 32 * KiB, 32 * KiB)))
        << "read " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, StreamerFixture,
                         ::testing::Values(Variant::kUram,
                                           Variant::kOnboardDram,
                                           Variant::kHostDram),
                         [](const auto& info) {
                           switch (info.param) {
                             case Variant::kUram:
                               return "Uram";
                             case Variant::kOnboardDram:
                               return "OnboardDram";
                             case Variant::kHostDram:
                               return "HostDram";
                             case Variant::kHbm:
                               return "Hbm";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace snacc
