// Host-side NVMe admin bring-up (Sec. 4.6): "our implementation uses the
// TaPaSCo driver and a custom host side PCIe driver for initialization of
// the NVMe Streamer IP and NVMe controller... This includes setting up the
// NVMe admin queue and using it to create command submission and completion
// queues."
//
// The one admin-queue implementation: the SNAcc host driver and the SPDK
// baseline both boot the controller through it. For SNAcc only this
// *initialization* runs on the host; the created I/O queues live in FPGA
// windows and are never touched by the CPU again.
#pragma once

#include <cstdint>

#include "nvme/queues.hpp"
#include "nvme/spec.hpp"
#include "nvme/ssd.hpp"
#include "pcie/memory_target.hpp"
#include "sim/task.hpp"

namespace snacc::nvme {

class NvmeAdmin {
 public:
  /// Host memory the admin SQ, admin CQ and identify buffer occupy.
  static constexpr Bytes kRegionBytes{3 * kPageSize};

  /// `region_local`: offset in host memory of the kRegionBytes region.
  NvmeAdmin(sim::Simulator& sim, pcie::Fabric& fabric,
            pcie::HostMemory& host_mem, pcie::Addr host_window_base, Ssd& ssd,
            Bytes region_local);

  /// Writes AQA/ASQ/ACQ, enables the controller and polls CSTS.RDY.
  sim::Task bring_up();

  /// Identify-controller; fills `out`.
  sim::Task identify(IdentifyController* out);

  /// Creates an I/O CQ + SQ pair (CQ first, as the spec requires). The base
  /// addresses may point anywhere in the fabric -- host DRAM for SPDK-style
  /// drivers, FPGA BAR windows for SNAcc.
  sim::Task create_io_queues(std::uint16_t qid, pcie::Addr sq_base,
                             pcie::Addr cq_base, std::uint16_t entries,
                             Status* status);

  /// Submits a raw admin command and waits for its completion. The wrappers
  /// above are built on it; it is also the escape hatch for commands without
  /// a wrapper (and for protocol-error tests).
  sim::Task command(SubmissionEntry sqe, Status* status);

 private:
  sim::Simulator& sim_;
  pcie::Fabric& fabric_;
  pcie::HostMemory& host_mem_;
  pcie::Addr host_window_base_;
  Ssd& ssd_;
  Bytes region_;
  SqRing sq_;
  CqRing cq_;
  std::uint16_t next_cid_ = 0;
};

}  // namespace snacc::nvme
