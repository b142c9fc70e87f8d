#include "snacc/buffer_backend.hpp"

#include <algorithm>

namespace snacc::core {

namespace {

/// The AXI data-mover interconnect round-trip seen by the read-out engine
/// for one request to on-board DRAM (interconnect + controller scheduling).
constexpr TimePs kAxiReadoutRoundTrip = ns(250);

/// Outstanding-request window of the read-out engine for bulk drains; small
/// drains run at depth 1 (latency-bound, Fig. 4c).
constexpr std::uint32_t kBulkDrainDepth = 32;

constexpr bool is_bulk(Bytes len) { return len.value() > kPageSize; }

}  // namespace

// ---------------------------------------------------------------------------
// OnboardDramBackend

sim::Task OnboardDramBackend::fill(Bytes off, Payload data) {
  // Stream-in uses long bursts; the Dram model charges bus time and
  // read/write turnaround against the NVMe controller's concurrent reads.
  auto fut = dram_.write((region_base_ + off).value(), std::move(data));
  co_await fut;
}

sim::Task OnboardDramBackend::drain(Bytes off, Bytes len, Payload* out) {
  const std::uint32_t req = fpga_.readout_req_bytes / 2;  // 256 B DRAM reads
  if (!is_bulk(len)) {
    // Latency-bound small drain: sequential requests, one round trip each.
    std::vector<Payload> parts;
    std::uint64_t done = 0;
    while (done < len.value()) {
      const std::uint64_t n = std::min<std::uint64_t>(req, len.value() - done);
      auto fut = dram_.read((region_base_ + off).value() + done, n);
      parts.push_back(co_await fut);
      co_await sim_.delay(kAxiReadoutRoundTrip);
      done += n;
    }
    *out = Payload::gather(parts);
    co_return;
  }
  // Bulk drain: the mover ramps its request window; model as one pipelined
  // burst read plus a single ramp-up round trip.
  co_await sim_.delay(kAxiReadoutRoundTrip);
  auto fut = dram_.read((region_base_ + off).value(), len.value());
  *out = co_await fut;
}

// ---------------------------------------------------------------------------
// HbmBackend

sim::Task HbmBackend::fill(Bytes off, Payload data) {
  auto fut = hbm_.write((region_base_ + off).value(), std::move(data));
  co_await fut;
}

sim::Task HbmBackend::drain(Bytes off, Bytes len, Payload* out) {
  // HBM channels pipeline independently; one ramp round trip, then a
  // channel-parallel burst read.
  co_await sim_.delay(kAxiReadoutRoundTrip);
  auto fut = hbm_.read((region_base_ + off).value(), len.value());
  *out = co_await fut;
}

// ---------------------------------------------------------------------------
// HostDramBackend

sim::Task HostDramBackend::fill(Bytes off, Payload data) {
  // PCIe writes to pinned host memory; split at chunk boundaries since the
  // pinned chunks need not be contiguous in the global address space.
  std::uint64_t done = 0;
  const std::uint64_t len = data.size();
  while (done < len) {
    const Bytes logical = off + Bytes{done};
    const std::uint64_t chunk_rem = (4 * MiB) - (logical.value() % (4 * MiB));
    const std::uint64_t n = std::min(len - done, chunk_rem);
    auto fut = fabric_.write(fpga_port_, xlat_.translate(logical),
                             data.slice(done, n));
    co_await fut;
    done += n;
  }
}

sim::Task HostDramBackend::drain(Bytes off, Bytes len, Payload* out) {
  const std::uint32_t req = fpga_.readout_req_bytes;  // 512 B TLP reads
  if (!is_bulk(len)) {
    // Depth-1 small drain: each 512 B read pays the host round trip --
    // the +9 us delta of Fig. 4c for a 4 kB command.
    std::vector<Payload> parts;
    std::uint64_t done = 0;
    while (done < len.value()) {
      const std::uint64_t n = std::min<std::uint64_t>(req, len.value() - done);
      auto fut = fabric_.read(fpga_port_, xlat_.translate(off + Bytes{done}),
                              Bytes{n});
      auto rr = co_await fut;
      parts.push_back(std::move(rr.data));
      done += n;
    }
    *out = Payload::gather(parts);
    co_return;
  }
  // Bulk drain: the mover raises its read-request size to a full page (the
  // completions still arrive as max-payload TLPs and are charged on the
  // links) and keeps kBulkDrainDepth requests outstanding.
  const std::uint32_t bulk_req = static_cast<std::uint32_t>(kPageSize);
  sim::WaitGroup wg(sim_);
  std::vector<Payload> parts((len.value() + bulk_req - 1) / bulk_req);
  std::unique_ptr<sim::Semaphore> window =
      std::make_unique<sim::Semaphore>(sim_, static_cast<int>(kBulkDrainDepth));
  auto issue = [](HostDramBackend* self, pcie::Addr addr, std::uint64_t n,
                  Payload* slot, sim::WaitGroup* group,
                  sim::Semaphore* win) -> sim::Task {
    auto fut = self->fabric_.read(self->fpga_port_, addr, Bytes{n});
    auto rr = co_await fut;
    *slot = std::move(rr.data);
    win->release();
    group->done();
  };
  std::uint64_t done = 0;
  std::size_t idx = 0;
  while (done < len.value()) {
    const std::uint64_t n = std::min<std::uint64_t>(bulk_req, len.value() - done);
    co_await window->acquire();
    wg.add(1);
    sim_.spawn(issue(this, xlat_.translate(off + Bytes{done}), n, &parts[idx],
                     &wg, window.get()));
    done += n;
    ++idx;
  }
  co_await wg.wait();
  parts.resize(idx);
  *out = Payload::gather(parts);
}

}  // namespace snacc::core
