// NVMe protocol structures (subset of NVMe 1.4 needed by SNAcc): 64-byte
// submission entries, 16-byte completion entries with phase tags, admin and
// I/O opcodes, controller registers and doorbell layout.
//
// Entries are encoded to/from real bytes so queues live in simulated memory
// exactly as on hardware: the controller *fetches* SQEs over PCIe and the
// host/streamer decodes CQEs it finds in its completion-queue memory.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "common/payload.hpp"
#include "common/units.hpp"

namespace snacc::nvme {

inline constexpr std::uint32_t kSqeSize = 64;
inline constexpr std::uint32_t kCqeSize = 16;
inline constexpr std::uint64_t kLbaSize = 4096;  // 4 KiB-formatted namespace

/// Little-endian register image of `v`: the payload of an MMIO register or
/// doorbell write (4 bytes for a 32-bit register, 8 for a base address).
template <class T>
  requires std::is_unsigned_v<T>
Payload le_payload(T v) {
  std::vector<std::byte> raw(sizeof(T));
  std::memcpy(raw.data(), &v, sizeof(T));
  return Payload::bytes(std::move(raw));
}

/// Decodes the little-endian `T` at byte `off` of a register image; 0 when
/// the payload is phantom or too short.
template <class T>
  requires std::is_unsigned_v<T>
T le_scalar(const Payload& p, std::size_t off = 0) {
  T v = 0;
  if (p.has_data() && p.size() >= off + sizeof(T)) {
    std::memcpy(&v, p.view().data() + off, sizeof(T));
  }
  return v;
}

enum class IoOpcode : std::uint8_t {
  kFlush = 0x00,
  kWrite = 0x01,
  kRead = 0x02,
};

enum class AdminOpcode : std::uint8_t {
  kDeleteIoSq = 0x00,
  kCreateIoSq = 0x01,
  kDeleteIoCq = 0x04,
  kCreateIoCq = 0x05,
  kIdentify = 0x06,
  kSetFeatures = 0x09,
};

enum class Status : std::uint16_t {
  kSuccess = 0x0,
  kInvalidOpcode = 0x1,
  kInvalidField = 0x2,
  kDataTransferError = 0x4,
  kInternalError = 0x6,
  kInvalidQueueId = 0x101,
  kInvalidQueueSize = 0x102,
  kLbaOutOfRange = 0x180,
  // Media & Data Integrity errors (SCT=2), as (sct << 8) | sc like the
  // generic codes above: a failed NAND program and an uncorrectable read.
  kWriteFault = 0x280,
  kUnrecoveredReadError = 0x281,
  // Synthesized locally by the SNAcc watchdog when a completion is lost
  // (e.g. the CQE's posted write was dropped); never appears on the wire.
  kWatchdogTimeout = 0x3F0,
};

/// Submission queue entry. Field offsets follow the spec layout: CDW0 holds
/// opcode and CID, DPTR holds PRP1/PRP2, CDW10/11 the starting LBA and CDW12
/// the 0-based logical block count.
struct SubmissionEntry {
  std::uint8_t opcode = 0;
  Cid cid;
  std::uint32_t nsid = 1;
  BusAddr prp1;
  BusAddr prp2;
  Lba slba;
  std::uint16_t nlb = 0;      // 0-based: nlb=0 -> 1 block
  std::uint32_t cdw10 = 0;    // admin commands reuse these directly
  std::uint32_t cdw11 = 0;

  Bytes data_bytes() const {
    return Bytes{(static_cast<std::uint64_t>(nlb) + 1) * kLbaSize};
  }

  std::array<std::byte, kSqeSize> encode() const {
    std::array<std::byte, kSqeSize> raw{};
    auto put = [&raw](std::size_t off, const auto& v) {
      std::memcpy(raw.data() + off, &v, sizeof(v));
    };
    const std::uint32_t cdw0 = static_cast<std::uint32_t>(opcode) |
                               (static_cast<std::uint32_t>(cid.value()) << 16);
    put(0, cdw0);
    put(4, nsid);
    put(24, prp1.value());
    put(32, prp2.value());
    // For I/O commands CDW10/11 encode the SLBA; admin commands carry their
    // own CDW10/11. Both views share the same bytes, so encode SLBA first
    // and let explicit cdw10/11 (nonzero) win for admin commands.
    put(40, slba.value());
    if (cdw10 != 0 || cdw11 != 0) {
      put(40, cdw10);
      put(44, cdw11);
    }
    const std::uint32_t cdw12 = nlb;
    put(48, cdw12);
    return raw;
  }

  static SubmissionEntry decode(std::span<const std::byte> raw) {
    SubmissionEntry e;
    auto get = [&raw](std::size_t off, auto& v) {
      std::memcpy(&v, raw.data() + off, sizeof(v));
    };
    std::uint32_t cdw0 = 0;
    get(0, cdw0);
    e.opcode = static_cast<std::uint8_t>(cdw0 & 0xFF);
    e.cid = Cid{static_cast<std::uint16_t>(cdw0 >> 16)};
    get(4, e.nsid);
    std::uint64_t prp1 = 0, prp2 = 0, slba = 0;
    get(24, prp1);
    get(32, prp2);
    get(40, slba);
    e.prp1 = BusAddr{prp1};
    e.prp2 = BusAddr{prp2};
    e.slba = Lba{slba};
    get(40, e.cdw10);
    get(44, e.cdw11);
    std::uint32_t cdw12 = 0;
    get(48, cdw12);
    e.nlb = static_cast<std::uint16_t>(cdw12 & 0xFFFF);
    return e;
  }
};

/// Completion queue entry with phase tag (bit 0 of the status word flips on
/// every queue wrap so pollers can detect new entries without a doorbell).
struct CompletionEntry {
  std::uint32_t dw0 = 0;
  std::uint16_t sq_head = 0;
  std::uint16_t sq_id = 0;
  Cid cid;
  Status status = Status::kSuccess;
  bool phase = false;

  std::array<std::byte, kCqeSize> encode() const {
    std::array<std::byte, kCqeSize> raw{};
    auto put = [&raw](std::size_t off, const auto& v) {
      std::memcpy(raw.data() + off, &v, sizeof(v));
    };
    put(0, dw0);
    put(8, sq_head);
    put(10, sq_id);
    put(12, cid.value());
    const std::uint16_t sf = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(status) << 1) | (phase ? 1 : 0));
    put(14, sf);
    return raw;
  }

  static CompletionEntry decode(std::span<const std::byte> raw) {
    CompletionEntry e;
    auto get = [&raw](std::size_t off, auto& v) {
      std::memcpy(&v, raw.data() + off, sizeof(v));
    };
    get(0, e.dw0);
    get(8, e.sq_head);
    get(10, e.sq_id);
    std::uint16_t cid = 0;
    get(12, cid);
    e.cid = Cid{cid};
    std::uint16_t sf = 0;
    get(14, sf);
    e.phase = (sf & 1) != 0;
    e.status = static_cast<Status>(sf >> 1);
    return e;
  }
};

/// Controller register offsets within BAR0 (BAR-local byte offsets).
namespace reg {
inline constexpr Bytes kCap{0x00};    // capabilities (RO)
inline constexpr Bytes kCc{0x14};     // controller configuration
inline constexpr Bytes kCsts{0x1C};   // controller status
inline constexpr Bytes kAqa{0x24};    // admin queue attributes
inline constexpr Bytes kAsq{0x28};    // admin SQ base
inline constexpr Bytes kAcq{0x30};    // admin CQ base
inline constexpr Bytes kDoorbellBase{0x1000};
inline constexpr std::uint64_t kDoorbellStride = 8;  // CAP.DSTRD = 0

/// The *only* sanctioned way to form a doorbell offset; snacc-lint flags
/// raw `kDoorbellBase + ...` arithmetic outside this header.
constexpr Bytes sq_tail_doorbell(std::uint16_t qid) {
  return kDoorbellBase + Bytes{2ull * qid * kDoorbellStride};
}
constexpr Bytes cq_head_doorbell(std::uint16_t qid) {
  return kDoorbellBase + Bytes{(2ull * qid + 1) * kDoorbellStride};
}
}  // namespace reg

/// The subset of Identify-Controller data SNAcc needs, serialized into the
/// 4 kB identify page.
struct IdentifyController {
  std::uint64_t namespace_blocks = 0;  // NSZE of namespace 1
  std::uint32_t max_transfer_bytes = 0;
  std::uint16_t max_queue_entries = 0;
  std::uint16_t num_io_queues = 0;

  Payload encode() const {
    std::vector<std::byte> raw(kPageSize, std::byte{0});
    std::memcpy(raw.data() + 0, &namespace_blocks, 8);
    std::memcpy(raw.data() + 8, &max_transfer_bytes, 4);
    std::memcpy(raw.data() + 12, &max_queue_entries, 2);
    std::memcpy(raw.data() + 14, &num_io_queues, 2);
    return Payload::bytes(std::move(raw));
  }

  static IdentifyController decode(const Payload& p) {
    IdentifyController id;
    if (!p.has_data() || p.size() < 16) return id;
    auto v = p.view();
    std::memcpy(&id.namespace_blocks, v.data() + 0, 8);
    std::memcpy(&id.max_transfer_bytes, v.data() + 8, 4);
    std::memcpy(&id.max_queue_entries, v.data() + 12, 2);
    std::memcpy(&id.num_io_queues, v.data() + 14, 2);
    return id;
  }
};

}  // namespace snacc::nvme
