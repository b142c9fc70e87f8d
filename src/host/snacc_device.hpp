// SnaccDevice: assembles the FPGA side of SNAcc for one of the three buffer
// variants (Sec. 4.3/4.5) and performs the one-time host-side initialization
// (Sec. 4.6): admin bring-up, I/O queue creation pointing at the FPGA's SQ
// FIFO / CQ reorder-buffer windows, DMA-chunk allocation for the host-DRAM
// variant, and the IOMMU grants required for P2P.
//
// After init() completes, the whole data path runs without host interaction.
#pragma once

#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "host/system.hpp"
#include "mem/dram.hpp"
#include "nvme/admin.hpp"
#include "snacc/buffer_backend.hpp"
#include "snacc/buffer_manager.hpp"
#include "snacc/streamer.hpp"

namespace snacc::host {

struct SnaccDeviceConfig {
  core::StreamerConfig streamer{};
  /// Which SSD this streamer drives (Sec. 7 multi-SSD: one queue pair and
  /// one streamer instance per SSD).
  std::uint32_t ssd_index = 0;
  /// Instance number: shifts all FPGA windows so several streamers coexist
  /// in one FPGA's address space.
  std::uint32_t instance = 0;
  /// Reuse an existing FPGA port (multi-SSD designs share one PCIe link);
  /// kInvalidPort creates a fresh one.
  pcie::PortId shared_fpga_port = pcie::kInvalidPort;
  Bytes uram_bytes{4 * MiB};          // URAM variant buffer
  Bytes dram_buffer_bytes{64 * MiB};  // per direction (DRAM variants)
  /// Host-memory offsets used by this driver (pinned buffers + admin region).
  Bytes pinned_base{256 * MiB};
  Bytes admin_region{192 * MiB};

  /// Effective offsets for this instance.
  Bytes effective_pinned_base() const {
    return pinned_base + Bytes{instance * 256ull * MiB};
  }
  Bytes effective_admin_region() const {
    return admin_region + Bytes{instance * 16ull * MiB};
  }
};

class SnaccDevice {
 public:
  /// BAR0 window layout (local offsets).
  static constexpr Bytes kSqWindow{0x0001'0000};
  static constexpr Bytes kCqWindow{0x0002'0000};
  static constexpr Bytes kPrpWindow{0x0010'0000};
  static constexpr Bytes kPrpWindowSize{1 * MiB};
  static constexpr Bytes kUramWindow{0x0080'0000};  // 8 MB aligned

  SnaccDevice(System& sys, SnaccDeviceConfig cfg = {});
  ~SnaccDevice();

  /// Base addresses of this instance's BAR windows.
  pcie::Addr bar0() const {
    return addr_map::kFpgaBar0 + Bytes{cfg_.instance * 0x0100'0000ull};
  }
  pcie::Addr bar2() const {
    return addr_map::kFpgaBar2 + Bytes{cfg_.instance * 0x1000'0000ull};
  }
  nvme::Ssd& ssd() { return sys_.ssd(cfg_.ssd_index); }

  /// Host-side one-time setup. Blocks (in simulated time) until the NVMe
  /// controller is ready and the I/O queues exist; then starts the streamer.
  sim::Task init();
  bool initialized() const { return initialized_; }

  core::NvmeStreamer& streamer() { return *streamer_; }
  pcie::PortId fpga_port() const { return fpga_port_; }
  core::Variant variant() const { return cfg_.streamer.variant; }
  mem::Dram* onboard_dram() { return dram_.get(); }

  /// Snapshot of fault-injection and recovery counters across every layer
  /// this device touches (NAND, SSD controller, fabric, IOMMU, streamer).
  FaultStats fault_stats() const;

 private:
  // BAR target adapters: thin routers into the streamer / memories.
  class SqTarget;
  class CqTarget;
  class PrpTarget;
  class UramWindowTarget;

  void build_uram_variant();
  void build_onboard_dram_variant();
  void build_host_dram_variant();
  void build_hbm_variant();
  void grant_iommu();
  std::uint16_t streamer_rob_capacity() const;

  System& sys_;
  SnaccDeviceConfig cfg_;
  pcie::PortId fpga_port_ = pcie::kInvalidPort;

  std::unique_ptr<mem::Uram> uram_;
  std::unique_ptr<mem::Dram> dram_;
  std::unique_ptr<mem::Hbm> hbm_;
  std::unique_ptr<core::BufferBackend> read_backend_;
  std::unique_ptr<core::BufferBackend> write_backend_;
  std::unique_ptr<core::BufferRing> read_ring_;
  std::unique_ptr<core::BufferRing> write_ring_;
  std::unique_ptr<core::UramPrpEngine> uram_prp_;
  std::unique_ptr<core::RegfilePrpEngine> regfile_prp_;
  std::unique_ptr<core::AddressTranslator> combined_xlat_;
  std::vector<pcie::Addr> pinned_chunks_;  // host-DRAM variant

  std::unique_ptr<SqTarget> sq_target_;
  std::unique_ptr<CqTarget> cq_target_;
  std::unique_ptr<PrpTarget> prp_target_;
  std::unique_ptr<UramWindowTarget> uram_target_;
  std::unique_ptr<pcie::MemoryPortTarget> dram_target_;

  std::unique_ptr<core::NvmeStreamer> streamer_;
  std::unique_ptr<nvme::NvmeAdmin> admin_;
  Bytes read_region_base_;
  Bytes write_region_base_;
  bool initialized_ = false;
};

}  // namespace snacc::host
