// snaccfio: a small fio-style workload runner for the simulated testbed --
// the tool you reach for to explore the design space without writing code.
//
//   $ ./snaccfio --engine=snacc --variant=host --rw=randread --bs=4k
//                --size=256m --qd=64
//   $ ./snaccfio --engine=spdk --rw=write --bs=1m --size=1g
//
// Options:
//   --engine=snacc|spdk        data path (default snacc)
//   --variant=uram|dram|host|hbm   SNAcc buffer variant (default uram)
//   --rw=read|write|randread|randwrite (default read)
//   --bs=<n>[k|m]              I/O size per command (default 1m)
//   --size=<n>[k|m|g]          total bytes (default 256m)
//   --qd=<n>                   queue depth / streamer window (default 64)
//   --ooo                      out-of-order retirement (SNAcc only)
//   --mode=fast|slow           pin the SSD's program mode (default fast)
//
// Exits non-zero if the workload does not finish or any command completes
// with an error status.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "host/snacc_device.hpp"
#include "host/system.hpp"
#include "snacc/pe_client.hpp"
#include "spdk/driver.hpp"

using namespace snacc;

namespace {

std::uint64_t parse_size(const char* s) {
  char* end = nullptr;
  double v = std::strtod(s, &end);
  if (end != nullptr) {
    if (*end == 'k' || *end == 'K') v *= KiB;
    if (*end == 'm' || *end == 'M') v *= MiB;
    if (*end == 'g' || *end == 'G') v *= GiB;
  }
  return static_cast<std::uint64_t>(v);
}

struct Options {
  bool spdk = false;
  core::Variant variant = core::Variant::kUram;
  bool is_write = false;
  bool random = false;
  std::uint64_t bs = 1 * MiB;
  std::uint64_t size = 256 * MiB;
  std::uint16_t qd = 64;
  bool ooo = false;
  bool fast_mode = true;
};

bool parse(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strncmp(a, "--engine=", 9)) {
      opt->spdk = !std::strcmp(a + 9, "spdk");
    } else if (!std::strncmp(a, "--variant=", 10)) {
      const char* v = a + 10;
      if (!std::strcmp(v, "uram")) opt->variant = core::Variant::kUram;
      else if (!std::strcmp(v, "dram")) opt->variant = core::Variant::kOnboardDram;
      else if (!std::strcmp(v, "host")) opt->variant = core::Variant::kHostDram;
      else if (!std::strcmp(v, "hbm")) opt->variant = core::Variant::kHbm;
      else return false;
    } else if (!std::strncmp(a, "--rw=", 5)) {
      const char* v = a + 5;
      opt->is_write = std::strstr(v, "write") != nullptr;
      opt->random = std::strncmp(v, "rand", 4) == 0;
    } else if (!std::strncmp(a, "--bs=", 5)) {
      opt->bs = parse_size(a + 5);
    } else if (!std::strncmp(a, "--size=", 7)) {
      opt->size = parse_size(a + 7);
    } else if (!std::strncmp(a, "--qd=", 5)) {
      opt->qd = static_cast<std::uint16_t>(std::atoi(a + 5));
    } else if (!std::strcmp(a, "--ooo")) {
      opt->ooo = true;
    } else if (!std::strncmp(a, "--mode=", 7)) {
      opt->fast_mode = std::strcmp(a + 7, "slow") != 0;
    } else {
      return false;
    }
  }
  return opt->bs >= 4 * KiB && opt->size >= opt->bs;
}

struct RunStats {
  TimePs elapsed;
  std::uint64_t bytes = 0;
  std::uint64_t errors = 0;  // commands that completed with an error status
  LatencyStats latency;
};

void report(const Options& opt, RunStats& st) {
  std::printf("\n  %s %s, bs=%llu KiB, %.0f MiB total, qd=%u\n",
              opt.random ? "random" : "sequential",
              opt.is_write ? "write" : "read",
              static_cast<unsigned long long>(opt.bs / KiB),
              static_cast<double>(opt.size) / MiB, opt.qd);
  std::printf("  bandwidth : %.2f GB/s\n", gb_per_s(st.bytes, st.elapsed));
  std::printf("  IOPS      : %.0f\n",
              static_cast<double>(st.bytes / opt.bs) / to_s(st.elapsed));
  if (st.latency.count() > 0) {
    std::printf("  latency   : mean %.1f us, p50 %.1f us, p99 %.1f us, "
                "max %.1f us\n",
                st.latency.mean_us(), to_us(st.latency.percentile(50)),
                to_us(st.latency.percentile(99)), to_us(st.latency.max()));
  }
}

sim::Task snacc_run(host::System* sys, core::PeClient* pe, const Options* opt,
                    RunStats* st, bool* done) {
  const std::uint64_t commands = opt->size / opt->bs;
  const std::uint64_t region_blocks = (8ull * GiB) / nvme::kLbaSize;
  const TimePs t0 = sys->sim().now();

  struct Issuer {
    static sim::Task run(core::PeClient* pe, const Options* opt,
                         std::uint64_t commands, std::uint64_t region_blocks,
                         std::vector<TimePs>* issue_times) {
      Xoshiro256 rng(42);
      for (std::uint64_t i = 0; i < commands; ++i) {
        const std::uint64_t addr =
            opt->random
                ? rng.below(region_blocks - opt->bs / nvme::kLbaSize) *
                      nvme::kLbaSize
                : i * opt->bs;
        (*issue_times)[i] = pe->streamer().read_cmd_in().simulator().now();
        if (opt->is_write) {
          co_await pe->start_write(Bytes{addr}, Payload::phantom(opt->bs),
                                   Bytes{opt->bs});
        } else {
          co_await pe->start_read(Bytes{addr}, Bytes{opt->bs});
        }
      }
    }
  };
  std::vector<TimePs> issue_times(commands);
  sys->sim().spawn(Issuer::run(pe, opt, commands, region_blocks, &issue_times));
  for (std::uint64_t i = 0; i < commands; ++i) {
    if (opt->is_write) {
      co_await pe->wait_write_response();
    } else {
      co_await pe->collect_read(nullptr);
    }
    st->latency.add(sys->sim().now() - issue_times[i]);
    st->bytes += opt->bs;
  }
  st->elapsed = sys->sim().now() - t0;
  // Recovery is off, so no error completion is retried: the streamer's
  // error count is the number of commands that completed with an error.
  st->errors = pe->streamer().errors();
  *done = true;
}

sim::Task spdk_run(host::System* sys, spdk::Driver* driver, const Options* opt,
                   RunStats* st, bool* done) {
  spdk::WorkloadResult res;
  const TimePs t0 = sys->sim().now();
  if (opt->random) {
    co_await driver->run_random(opt->is_write, Bytes{opt->size}, Bytes{opt->bs},
                                (8ull * GiB) / nvme::kLbaSize, 42, &res);
  } else {
    co_await driver->run_sequential(opt->is_write, Lba{}, Bytes{opt->size},
                                    Bytes{opt->bs}, &res);
  }
  st->elapsed = sys->sim().now() - t0;
  st->bytes = res.bytes;
  st->errors = driver->io_failed();
  st->latency = std::move(res.latency);
  *done = true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) {
    std::fprintf(stderr, "bad arguments; see the header of this file\n");
    return 2;
  }

  host::SystemConfig sys_cfg;
  sys_cfg.host_memory_bytes = 2 * GiB;
  host::System sys(sys_cfg);
  sys.ssd().nand().force_mode(opt.fast_mode);

  RunStats st;
  bool done = false;
  std::unique_ptr<host::SnaccDevice> dev;
  std::unique_ptr<core::PeClient> pe;
  std::unique_ptr<spdk::Driver> driver;

  bool booted = false;
  if (opt.spdk) {
    spdk::DriverConfig cfg;
    cfg.queue_depth = opt.qd;
    driver = std::make_unique<spdk::Driver>(
        sys.sim(), sys.fabric(), sys.host_mem(), host::addr_map::kHostDramBase,
        sys.ssd(), sys.config().profile.host, cfg);
    // `boot` is a named local whose
    // closure outlives run_until(); the frame completes before destruction.
    // snacc-lint: allow(dangling-capture): safe by construction, see above.
    auto boot = [&]() -> sim::Task {
      co_await driver->init();
      booted = driver->initialized();
    };
    sys.sim().spawn(boot());
  } else {
    host::SnaccDeviceConfig cfg;
    cfg.streamer.variant = opt.variant;
    cfg.streamer.queue_depth = opt.qd;
    cfg.streamer.out_of_order = opt.ooo;
    dev = std::make_unique<host::SnaccDevice>(sys, cfg);
    // `boot` is a named local whose
    // closure outlives run_until(); the frame completes before destruction.
    // snacc-lint: allow(dangling-capture): safe by construction, see above.
    auto boot = [&]() -> sim::Task {
      co_await dev->init();
      booted = true;
    };
    sys.sim().spawn(boot());
  }
  sys.sim().run_until(seconds(1));
  if (!booted) {
    std::fprintf(stderr, "initialization failed\n");
    return 1;
  }

  std::printf("engine=%s%s%s qd=%u ssd-mode=%s",
              opt.spdk ? "spdk" : "snacc",
              opt.spdk ? "" : " variant=",
              opt.spdk ? "" : core::variant_name(opt.variant), opt.qd,
              opt.fast_mode ? "fast" : "slow");
  if (opt.ooo) std::printf(" (out-of-order retirement)");
  std::printf("\n");

  if (opt.spdk) {
    sys.sim().spawn(spdk_run(&sys, driver.get(), &opt, &st, &done));
  } else {
    pe = std::make_unique<core::PeClient>(dev->streamer());
    sys.sim().spawn(snacc_run(&sys, pe.get(), &opt, &st, &done));
  }
  sys.sim().run_until(sys.sim().now() + seconds(600));
  if (!done) {
    std::fprintf(stderr, "workload did not finish\n");
    return 1;
  }
  report(opt, st);
  if (st.errors > 0) {
    std::fprintf(stderr, "%llu commands completed with an error status\n",
                 static_cast<unsigned long long>(st.errors));
    return 1;
  }
  return 0;
}
