#include "pcie/fabric.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace snacc::pcie {

Fabric::Fabric(sim::Simulator& sim, const PcieProfile& profile)
    : sim_(sim), profile_(profile) {}

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kUnmappedRead:
      return "unmapped-read";
    case FaultKind::kUnmappedWrite:
      return "unmapped-write";
    case FaultKind::kIommuRead:
      return "iommu-read";
    case FaultKind::kIommuWriteDrop:
      return "iommu-write-drop";
    case FaultKind::kCompletionTimeout:
      return "completion-timeout";
  }
  return "?";
}

PortId Fabric::add_port(std::string name, double link_gb_s) {
  auto port = std::make_unique<Port>(Port{
      std::move(name),
      sim::RateServer(sim_, link_gb_s),
      sim::RateServer(sim_, link_gb_s),
      link_gb_s,
  });
  ports_.push_back(std::move(port));
  port_faults_.emplace_back();
  return PortId{static_cast<std::uint16_t>(ports_.size() - 1)};
}

const PortFaultStats& Fabric::port_faults(PortId p) const {
  return port_faults_.at(static_cast<std::size_t>(p));
}

void Fabric::record_fault(FaultKind kind, PortId initiator, Addr addr,
                          Bytes len) {
  last_fault_ = FaultRecord{kind, initiator, addr, len, sim_.now()};
  PortFaultStats& pf = port_faults_.at(static_cast<std::size_t>(initiator));
  switch (kind) {
    case FaultKind::kUnmappedRead:
    case FaultKind::kUnmappedWrite:
      ++pf.unmapped;
      break;
    case FaultKind::kIommuRead:
      ++pf.iommu_read_faults;
      break;
    case FaultKind::kIommuWriteDrop:
      ++pf.iommu_write_drops;
      break;
    case FaultKind::kCompletionTimeout:
      ++pf.completion_timeouts;
      break;
  }
}

void Fabric::degrade_link(PortId p, double factor, TimePs duration) {
  Port& port = *ports_.at(static_cast<std::size_t>(p));
  port.tx.set_rate(port.base_gb_s * factor);
  port.rx.set_rate(port.base_gb_s * factor);
  sim_.spawn(restore_link(p, sim_.now() + duration, ++port.degrade_gen));
}

sim::Task Fabric::restore_link(PortId p, TimePs at, std::uint64_t gen) {
  co_await sim_.delay_until(at);
  Port& port = *ports_.at(static_cast<std::size_t>(p));
  if (port.degrade_gen != gen) co_return;  // a newer window owns the rate
  port.tx.set_rate(port.base_gb_s);
  port.rx.set_rate(port.base_gb_s);
}

void Fabric::map(Addr base, Bytes size, Target* target, PortId owner,
                 MemKind kind) {
  assert(target != nullptr);
  // Reject overlapping windows: they would make routing ambiguous. A setup
  // error like this must fail in every build type, so it is not an assert.
  const auto next = windows_.upper_bound(base);
  const bool overlaps_next =
      next != windows_.end() && base + size > next->second.base;
  const bool overlaps_prev =
      next != windows_.begin() &&
      std::prev(next)->second.base + std::prev(next)->second.size > base;
  if (overlaps_next || overlaps_prev) {
    throw std::invalid_argument(
        "pcie::Fabric::map: window overlaps a mapped one");
  }
  windows_.emplace(base, Window{base, size, target, owner, kind});
}

MemKind Fabric::kind_at(Addr addr) const {
  const Window* w = route(addr, Bytes{1});
  return w ? w->kind : MemKind::kDevice;
}

PortId Fabric::owner_at(Addr addr) const {
  const Window* w = route(addr, Bytes{1});
  return w ? w->owner : kInvalidPort;
}

void Fabric::unmap(Addr base) { windows_.erase(base); }

const Fabric::Window* Fabric::route(Addr addr, Bytes len) const {
  auto it = windows_.upper_bound(addr);
  if (it == windows_.begin()) return nullptr;
  --it;
  const Window& w = it->second;
  if (addr < w.base || addr + len > w.base + w.size) return nullptr;
  return &w;
}

Bytes Fabric::wire_bytes(Bytes payload) const {
  const std::uint64_t tlps =
      payload.is_zero()
          ? 1
          : (payload + Bytes{profile_.max_payload - 1}) /
                Bytes{profile_.max_payload};
  return payload + Bytes{tlps * profile_.tlp_header_bytes};
}

TimePs Fabric::read_rtt(PortId src, PortId dst) const {
  const bool host_path = (src == root_) || (dst == root_);
  return host_path ? profile_.host_read_rtt : profile_.p2p_read_rtt;
}

const PathStats& Fabric::path(PortId src, PortId dst) const {
  static const PathStats kEmpty{};
  auto it = paths_.find({static_cast<std::uint16_t>(src),
                         static_cast<std::uint16_t>(dst)});
  return it == paths_.end() ? kEmpty : it->second;
}

PathStats& Fabric::path_mut(PortId src, PortId dst) {
  return paths_[{static_cast<std::uint16_t>(src),
                 static_cast<std::uint16_t>(dst)}];
}

std::uint64_t Fabric::total_bytes() const {
  std::uint64_t sum = 0;
  for (const auto& [key, stats] : paths_) sum += stats.bytes();
  return sum;
}

const std::string& Fabric::port_name(PortId p) const {
  return ports_.at(static_cast<std::size_t>(p))->name;
}

sim::Future<ReadResult> Fabric::read(PortId src, Addr addr, Bytes len,
                                     bool control) {
  sim::Promise<ReadResult> done(sim_);
  auto fut = done.future();
  sim_.spawn(do_read(src, addr, len, control, std::move(done)));
  return fut;
}

sim::Future<sim::Done> Fabric::write(PortId src, Addr addr, Payload data) {
  sim::Promise<sim::Done> done(sim_);
  auto fut = done.future();
  sim_.spawn(do_write(src, addr, std::move(data), std::move(done)));
  return fut;
}

namespace {
/// TLPs up to one max-payload packet interleave with queued bulk traffic on
/// a real link (transaction-level fairness); modelling them through the
/// same FIFO server would make doorbells and completions queue behind
/// megabytes of data. Small transactions therefore bypass the server and
/// only pay their own wire time.
constexpr Bytes kInterleaveBypassBytes{512};
}  // namespace

sim::Task Fabric::do_read(PortId src, Addr addr, Bytes len, bool control,
                          sim::Promise<ReadResult> done) {
  const Window* w = route(addr, len);
  if (w == nullptr) {
    ++unmapped_errors_;
    record_fault(FaultKind::kUnmappedRead, src, addr, len);
    co_await sim_.delay(profile_.host_read_rtt);
    done.set(ReadResult{Payload::phantom(len), false});
    co_return;
  }
  if (src != root_ && !iommu_.check(src, addr, len, /*write=*/false)) {
    record_fault(FaultKind::kIommuRead, src, addr, len);
    co_await sim_.delay(profile_.host_read_rtt);
    done.set(ReadResult{Payload::phantom(len), false});
    co_return;
  }
  if (read_loss_.armed() && read_loss_.fire()) {
    // Lost non-posted TLP: no completion ever arrives; the initiator's
    // completion timer expires and the transaction fails like a UR/CA.
    record_fault(FaultKind::kCompletionTimeout, src, addr, len);
    co_await sim_.delay(profile_.completion_timeout);
    done.set(ReadResult{Payload::phantom(len), false});
    co_return;
  }

  Port& sp = *ports_.at(static_cast<std::size_t>(src));
  Port& dp = *ports_.at(static_cast<std::size_t>(w->owner));
  const TimePs rtt = read_rtt(src, w->owner);

  // Request TLP: header-only, interleaves with bulk traffic.
  co_await sim_.delay(transfer_time(profile_.tlp_header_bytes, sp.tx.rate()));
  co_await sim_.delay(rtt / 2);

  auto served = w->target->mem_read(addr - w->base, len);
  Payload data = co_await served;

  // Completion(s) with data serialize on the target's TX link, then travel
  // back. (A same-port read -- e.g. SSD reading its own BAR -- never happens.)
  if (control || len <= kInterleaveBypassBytes) {
    co_await sim_.delay(transfer_time(wire_bytes(len), dp.tx.rate()));
  } else {
    co_await dp.tx.acquire(wire_bytes(len));
    // The completion also lands on the initiator's RX lane -- this is what
    // caps aggregate inbound bandwidth when one port reads many sources.
    co_await sp.rx.acquire(wire_bytes(len));
  }
  co_await sim_.delay(rtt / 2);

  PathStats& ps = path_mut(src, w->owner);
  // snacc-lint: allow(value-escape): aggregate traffic counters are raw totals
  ps.read_bytes += len.value();
  ps.reads += 1;
  done.set(ReadResult{std::move(data), true});
}

sim::Task Fabric::do_write(PortId src, Addr addr, Payload data,
                           sim::Promise<sim::Done> done) {
  const Bytes len{data.size()};
  const Window* w = route(addr, len);
  if (w == nullptr) {
    ++unmapped_errors_;
    record_fault(FaultKind::kUnmappedWrite, src, addr, len);
    done.set(sim::Done{});
    co_return;
  }
  if (src != root_ && !iommu_.check(src, addr, len, /*write=*/true)) {
    // Posted writes have no completion to fail: the TLP vanishes at the
    // IOMMU exactly as on hardware. The drop is *observable* though --
    // counted per initiator and exposed via last_fault() -- so watchdogs
    // and tests can see what the wire never reports.
    record_fault(FaultKind::kIommuWriteDrop, src, addr, len);
    done.set(sim::Done{});
    co_return;
  }

  Port& sp = *ports_.at(static_cast<std::size_t>(src));
  Port& dp = *ports_.at(static_cast<std::size_t>(w->owner));

  if (len <= kInterleaveBypassBytes) {
    // Doorbells and small control writes interleave with bulk traffic.
    co_await sim_.delay(transfer_time(wire_bytes(len), sp.tx.rate()));
    co_await sim_.delay(profile_.posted_write_latency);
  } else {
    co_await sp.tx.acquire(wire_bytes(len));
    co_await sim_.delay(profile_.posted_write_latency);
    co_await dp.rx.acquire(wire_bytes(len));
  }

  PathStats& ps = path_mut(src, w->owner);
  // snacc-lint: allow(value-escape): aggregate traffic counters are raw totals
  ps.write_bytes += len.value();
  ps.writes += 1;

  co_await w->target->mem_write(addr - w->base, std::move(data));
  done.set(sim::Done{});
}

}  // namespace snacc::pcie
