// SPDK-style host polled-mode NVMe driver (the paper's baseline, Sec. 5.1).
//
// Faithful to SPDK's architecture: queues and pinned data buffers live in
// host DRAM, the driver runs in "user space" (no syscalls modeled), keeps the
// submission queue as full as the configured queue depth allows, harvests
// completions *out of order* by polling the CQ phase bit, and burns a CPU
// thread doing so. PRP lists are materialized in memory ("the naive
// implementation" the paper contrasts the streamer's on-the-fly scheme with).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/calibration.hpp"
#include "common/cpu_account.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "nvme/admin.hpp"
#include "nvme/queues.hpp"
#include "nvme/spec.hpp"
#include "nvme/ssd.hpp"
#include "pcie/memory_target.hpp"
#include "sim/future.hpp"

namespace snacc::spdk {

struct DriverConfig {
  std::uint16_t queue_depth = 64;     // in-flight I/O commands
  TimePs poll_interval = ns(150);     // CQ poll loop period
  TimePs submit_overhead = ns(350);   // per-command software cost
  Bytes region_offset{};              // where in host memory the driver lives

  // Error recovery (docs/FAULTS.md). 0 retries = report the error status to
  // the caller, exactly the pre-recovery behaviour (bit-identical when no
  // faults fire: the retry branch is only reached on an error completion).
  std::uint32_t max_retries = 0;      // resubmissions per failed command
  TimePs retry_backoff = us(5);       // first backoff; doubles per attempt
};

struct WorkloadResult {
  TimePs elapsed;
  std::uint64_t bytes = 0;
  std::uint64_t commands = 0;
  LatencyStats latency;
  double bandwidth_gb_s() const { return gb_per_s(bytes, elapsed); }
};

class Driver {
 public:
  Driver(sim::Simulator& sim, pcie::Fabric& fabric, pcie::HostMemory& host_mem,
         pcie::Addr host_window_base, nvme::Ssd& ssd, const HostProfile& host,
         DriverConfig cfg = {});

  /// Full controller bring-up through real admin commands (nvme::NvmeAdmin):
  /// register setup, CSTS poll, Identify, Create I/O CQ + SQ. Must complete
  /// before I/O; initialized() reports whether the I/O queues exist.
  sim::Task init();
  bool initialized() const { return initialized_; }
  const nvme::IdentifyController& identify_data() const { return identify_; }

  /// Single blocking read/write (splits at the device MDTS). `out` receives
  /// the data when non-null.
  sim::Task read(Lba lba, Bytes bytes, Payload* out,
                 nvme::Status* status = nullptr);
  sim::Task write(Lba lba, Payload data, nvme::Status* status = nullptr);

  /// Pipelined sequential workload: `total_bytes` in `cmd_bytes` commands,
  /// queue depth kept full, completions harvested out of order.
  sim::Task run_sequential(bool is_write, Lba start_lba, Bytes total_bytes,
                           Bytes cmd_bytes, WorkloadResult* result);

  /// Pipelined random workload: uniformly random block addresses within
  /// `region_blocks`.
  sim::Task run_random(bool is_write, Bytes total_bytes, Bytes cmd_bytes,
                       std::uint64_t region_blocks, std::uint64_t seed,
                       WorkloadResult* result);

  CpuAccount& cpu() { return cpu_; }

  // Recovery statistics (zero unless faults fired).
  std::uint64_t io_errors() const { return io_errors_; }    // error completions
  std::uint64_t io_retries() const { return io_retries_; }  // resubmissions
  std::uint64_t io_failed() const { return io_failed_; }    // retries exhausted

 private:
  struct Slot {
    bool in_use = false;
    sim::Promise<nvme::Status>* completion = nullptr;  // owned by submitter
  };

  struct IoDesc {
    bool is_write = false;
    Lba lba;
    Bytes bytes;
  };

  // Region layout (local offsets inside the driver's host-memory region).
  Bytes local(Bytes off) const { return cfg_.region_offset + off; }
  pcie::Addr global(Bytes off) const { return host_window_base_ + local(off); }
  // The region opens with the admin queues that init() boots through; the
  // I/O rings scale with the configured queue depth (qd+1 entries).
  Bytes io_sq_off() const { return nvme::NvmeAdmin::kRegionBytes; }
  Bytes io_cq_off() const {
    return io_sq_off() +
           page_align_up(Bytes{(cfg_.queue_depth + 1ull) * nvme::kSqeSize});
  }
  Bytes prp_list_off(std::uint16_t slot) const {
    return io_cq_off() +
           page_align_up(Bytes{(cfg_.queue_depth + 1ull) * nvme::kCqeSize}) +
           Bytes{static_cast<std::uint64_t>(slot) * kPageSize};
  }
  Bytes buffer_off(std::uint16_t slot) const {
    return prp_list_off(cfg_.queue_depth) +
           max_transfer_ * static_cast<std::uint64_t>(slot);
  }

  /// Posted MMIO write of `value` to the I/O queue doorbell at `reg`.
  sim::Task ring_doorbell(Bytes reg, std::uint16_t value);

  /// Waits for a free command slot and claims it.
  sim::Task claim_slot(std::uint16_t* slot);

  /// Writes the SQE + PRP list into host memory and rings the doorbell.
  /// The slot must already be claimed.
  sim::Task submit_io(const IoDesc& io, std::uint16_t slot,
                      sim::Promise<nvme::Status>* completion);

  /// Claims a slot, stages `stage` into its pinned buffer when non-empty
  /// (writes), submits `io` and waits for its completion status.
  sim::Task submit_and_wait(const IoDesc& io, const Payload& stage,
                            std::uint16_t* slot, nvme::Status* status);

  /// The one error-recovery routine of every I/O path: counts the error
  /// completion in `*status`, resubmits up to max_retries times with a
  /// doubling backoff (restaging `stage`: the failed attempt's slot was
  /// recycled) and counts the command as failed if no attempt succeeds.
  /// `*slot` follows the resubmitted command.
  sim::Task retry(const IoDesc& io, const Payload& stage, std::uint16_t* slot,
                  nvme::Status* status);

  /// Polls the I/O CQ until `pending_` drains to zero.
  sim::Task poller();

  /// Shared engine for run_sequential / run_random.
  sim::Task run_workload(const std::vector<IoDesc>& ios, WorkloadResult* result);

  sim::Simulator& sim_;
  pcie::Fabric& fabric_;
  pcie::HostMemory& host_mem_;
  pcie::Addr host_window_base_;
  nvme::Ssd& ssd_;
  HostProfile host_;
  DriverConfig cfg_;
  Bytes max_transfer_{1 * MiB};

  nvme::IdentifyController identify_;
  bool initialized_ = false;

  nvme::SqRing io_sq_;
  nvme::CqRing io_cq_;

  std::vector<Slot> slots_;
  std::unique_ptr<sim::Semaphore> slot_sem_;
  int pending_ = 0;
  bool poller_running_ = false;

  CpuAccount cpu_{"spdk-thread"};

  std::uint64_t io_errors_ = 0;
  std::uint64_t io_retries_ = 0;
  std::uint64_t io_failed_ = 0;
};

}  // namespace snacc::spdk
