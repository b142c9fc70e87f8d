#include "spdk/driver.hpp"

#include <cassert>
#include <cstring>
#include <memory>

namespace snacc::spdk {

namespace {

Payload u32_payload(std::uint32_t v) {
  std::vector<std::byte> raw(4);
  std::memcpy(raw.data(), &v, 4);
  return Payload::bytes(std::move(raw));
}

Payload u64_payload(std::uint64_t v) {
  std::vector<std::byte> raw(8);
  std::memcpy(raw.data(), &v, 8);
  return Payload::bytes(std::move(raw));
}

constexpr std::uint16_t kAdminEntries = 16;
constexpr std::uint16_t kIoQid = 1;

}  // namespace

Driver::Driver(sim::Simulator& sim, pcie::Fabric& fabric,
               pcie::HostMemory& host_mem, pcie::Addr host_window_base,
               nvme::Ssd& ssd, const HostProfile& host, DriverConfig cfg)
    : sim_(sim),
      fabric_(fabric),
      host_mem_(host_mem),
      host_window_base_(host_window_base),
      ssd_(ssd),
      host_(host),
      cfg_(cfg),
      admin_sq_(nvme::QueueConfig{0, pcie::Addr{}, kAdminEntries}),
      admin_cq_(nvme::QueueConfig{0, pcie::Addr{}, kAdminEntries}),
      io_sq_(nvme::QueueConfig{kIoQid, pcie::Addr{},
                               static_cast<std::uint16_t>(cfg.queue_depth + 1)}),
      io_cq_(nvme::QueueConfig{kIoQid, pcie::Addr{},
                               static_cast<std::uint16_t>(cfg.queue_depth + 1)}) {
  admin_sq_ = nvme::SqRing(nvme::QueueConfig{0, global(admin_sq_off()), kAdminEntries});
  admin_cq_ = nvme::CqRing(nvme::QueueConfig{0, global(admin_cq_off()), kAdminEntries});
  io_sq_ = nvme::SqRing(nvme::QueueConfig{
      kIoQid, global(io_sq_off()), static_cast<std::uint16_t>(cfg.queue_depth + 1)});
  io_cq_ = nvme::CqRing(nvme::QueueConfig{
      kIoQid, global(io_cq_off()), static_cast<std::uint16_t>(cfg.queue_depth + 1)});
  slots_.resize(cfg.queue_depth);
  slot_sem_ = std::make_unique<sim::Semaphore>(sim_, cfg.queue_depth);
}

// ---------------------------------------------------------------------------
// Bring-up

sim::Task Driver::init() {
  const pcie::PortId root = fabric_.root_port();
  const pcie::Addr bar = ssd_.bar_base();

  // Admin queue registers, then enable.
  co_await fabric_.write(root, bar + nvme::reg::kAsq, u64_payload(admin_sq_.config().base.value()));
  co_await fabric_.write(root, bar + nvme::reg::kAcq, u64_payload(admin_cq_.config().base.value()));
  const std::uint32_t aqa = (kAdminEntries - 1) | ((kAdminEntries - 1u) << 16);
  co_await fabric_.write(root, bar + nvme::reg::kAqa, u32_payload(aqa));
  co_await fabric_.write(root, bar + nvme::reg::kCc, u32_payload(1));
  cpu_.charge(4 * host_.doorbell_write);

  // Poll CSTS.RDY.
  while (true) {
    auto rr = co_await fabric_.read(root, bar + nvme::reg::kCsts, Bytes{4});
    std::uint32_t csts = 0;
    if (rr.data.has_data()) std::memcpy(&csts, rr.data.view().data(), 4);
    if (csts & 1) break;
    co_await sim_.delay(us(10));
    cpu_.charge(us(10));  // init-time spin; not part of any measurement
  }

  // Identify controller.
  nvme::SubmissionEntry identify;
  identify.opcode = static_cast<std::uint8_t>(nvme::AdminOpcode::kIdentify);
  identify.prp1 = global(identify_off());
  identify.cdw10 = 1;  // CNS=controller
  nvme::Status st = nvme::Status::kSuccess;
  co_await admin_cmd(identify, &st);
  assert(st == nvme::Status::kSuccess);
  identify_ = nvme::IdentifyController::decode(
      host_mem_.store().read(local(identify_off()).value(), kPageSize));
  if (identify_.max_transfer_bytes != 0) {
    max_transfer_ = Bytes{identify_.max_transfer_bytes};
  }

  // Create the I/O completion queue, then the submission queue bound to it.
  nvme::SubmissionEntry create_cq;
  create_cq.opcode = static_cast<std::uint8_t>(nvme::AdminOpcode::kCreateIoCq);
  create_cq.prp1 = io_cq_.config().base;
  create_cq.cdw10 = kIoQid | (static_cast<std::uint32_t>(io_cq_.config().entries - 1) << 16);
  create_cq.cdw11 = 1;  // physically contiguous
  co_await admin_cmd(create_cq, &st);
  assert(st == nvme::Status::kSuccess);

  nvme::SubmissionEntry create_sq;
  create_sq.opcode = static_cast<std::uint8_t>(nvme::AdminOpcode::kCreateIoSq);
  create_sq.prp1 = io_sq_.config().base;
  create_sq.cdw10 = kIoQid | (static_cast<std::uint32_t>(io_sq_.config().entries - 1) << 16);
  create_sq.cdw11 = (static_cast<std::uint32_t>(kIoQid) << 16) | 1;
  co_await admin_cmd(create_sq, &st);
  assert(st == nvme::Status::kSuccess);

  initialized_ = true;
}

sim::Task Driver::ring_sq_doorbell(std::uint16_t qid, std::uint16_t tail) {
  // MMIO doorbells are posted writes: the CPU pays the store cost but does
  // not wait for delivery (SQE bytes are already globally visible).
  cpu_.charge(host_.doorbell_write);
  co_await sim_.delay(host_.doorbell_write);
  (void)fabric_.write(fabric_.root_port(),
                      ssd_.bar_base() + nvme::reg::sq_tail_doorbell(qid),
                      u32_payload(tail));
}

sim::Task Driver::ring_cq_doorbell(std::uint16_t qid, std::uint16_t head) {
  cpu_.charge(host_.doorbell_write);
  co_await sim_.delay(host_.doorbell_write);
  (void)fabric_.write(fabric_.root_port(),
                      ssd_.bar_base() + nvme::reg::cq_head_doorbell(qid),
                      u32_payload(head));
}

sim::Task Driver::admin_cmd(nvme::SubmissionEntry sqe, nvme::Status* status,
                            std::uint32_t* dw0) {
  sqe.cid = Cid{next_cid_++};
  auto raw = sqe.encode();
  const Bytes sq_off =
      (admin_sq_.config().base - host_window_base_) +
      Bytes{static_cast<std::uint64_t>(admin_sq_.tail()) * nvme::kSqeSize};
  host_mem_.store().write(sq_off.value(),
                          Payload::bytes({raw.begin(), raw.end()}));
  const std::uint16_t tail = admin_sq_.advance_tail();
  co_await ring_sq_doorbell(0, tail);

  // Poll the admin CQ.
  while (true) {
    Payload cqe_raw = host_mem_.store().read(
        (admin_cq_.head_addr() - host_window_base_).value(), nvme::kCqeSize);
    if (cqe_raw.has_data()) {
      auto cqe = nvme::CompletionEntry::decode(cqe_raw.view());
      if (admin_cq_.is_new(cqe) && cqe.cid == sqe.cid) {
        admin_sq_.update_head(cqe.sq_head);
        if (status != nullptr) *status = cqe.status;
        if (dw0 != nullptr) *dw0 = cqe.dw0;
        const std::uint16_t head = admin_cq_.advance();
        co_await ring_cq_doorbell(0, head);
        co_return;
      }
    }
    co_await sim_.delay(cfg_.poll_interval);
    cpu_.charge(cfg_.poll_interval);
  }
}

// ---------------------------------------------------------------------------
// I/O path

sim::Task Driver::submit_io(const IoDesc& io, std::uint16_t slot,
                            sim::Promise<nvme::Status>* completion) {
  assert(initialized_);
  assert(io.bytes <= max_transfer_);
  assert(!io_sq_.full());

  Slot& s = slots_[slot];
  s.in_use = true;
  s.completion = completion;
  s.submitted_at = sim_.now();

  const pcie::Addr buf = global(buffer_off(slot));
  nvme::SubmissionEntry sqe;
  sqe.opcode = static_cast<std::uint8_t>(io.is_write ? nvme::IoOpcode::kWrite
                                                     : nvme::IoOpcode::kRead);
  sqe.cid = Cid{slot};
  sqe.slba = io.lba;
  sqe.nlb = static_cast<std::uint16_t>(
      (io.bytes.value() + nvme::kLbaSize - 1) / nvme::kLbaSize - 1);
  sqe.prp1 = buf;
  const std::uint64_t pages = nvme::prp_page_count(io.bytes);
  if (pages == 2) {
    sqe.prp2 = buf + Bytes{kPageSize};
  } else if (pages > 2) {
    // Materialize the PRP list in host memory -- the "naive" scheme.
    sqe.prp2 = global(prp_list_off(slot));
    auto lists = nvme::build_prp_lists(buf, io.bytes, sqe.prp2);
    std::uint64_t page_addr = local(prp_list_off(slot)).value();
    for (const auto& list : lists) {
      std::vector<std::byte> raw(list.size() * 8);
      std::memcpy(raw.data(), list.data(), raw.size());
      host_mem_.store().write(page_addr, Payload::bytes(std::move(raw)));
      page_addr += kPageSize;
    }
    // Our buffers are contiguous, so chained lists never exceed one page for
    // MDTS=1 MiB; keep the assert to catch config drift.
    assert(lists.size() <= 1);
  }

  auto raw = sqe.encode();
  host_mem_.store().write((io_sq_.next_slot_addr() - host_window_base_).value(),
                          Payload::bytes({raw.begin(), raw.end()}));
  const std::uint16_t tail = io_sq_.advance_tail();
  cpu_.charge(cfg_.submit_overhead);
  co_await sim_.delay(cfg_.submit_overhead);
  co_await ring_sq_doorbell(kIoQid, tail);

  ++pending_;
  if (!poller_running_) {
    poller_running_ = true;
    sim_.spawn(poller());
  }
}

sim::Task Driver::poller() {
  while (pending_ > 0) {
    Payload cqe_raw = host_mem_.store().read(
        (io_cq_.head_addr() - host_window_base_).value(), nvme::kCqeSize);
    bool found = false;
    if (cqe_raw.has_data()) {
      auto cqe = nvme::CompletionEntry::decode(cqe_raw.view());
      if (io_cq_.is_new(cqe)) {
        found = true;
        io_sq_.update_head(cqe.sq_head);
        const std::uint16_t head = io_cq_.advance();
        Slot& s = slots_.at(cqe.cid.value());
        assert(s.in_use);
        s.in_use = false;
        --pending_;
        cpu_.charge(ns(80));  // per-completion bookkeeping
        if (s.completion != nullptr) {
          auto* promise = s.completion;
          s.completion = nullptr;
          promise->set(cqe.status);
        }
        slot_sem_->release();
        co_await ring_cq_doorbell(kIoQid, head);
      }
    }
    if (!found) {
      cpu_.charge(cfg_.poll_interval);
      co_await sim_.delay(cfg_.poll_interval);
    }
  }
  poller_running_ = false;
}

sim::Task Driver::resubmit_one(IoDesc io, std::uint32_t attempt, Payload stage,
                               nvme::Status* status, std::uint16_t* slot_out) {
  ++io_retries_;
  co_await sim_.delay(cfg_.retry_backoff * (1ull << (attempt - 1)));
  co_await slot_sem_->acquire();
  std::uint16_t slot = 0;
  while (slots_[slot].in_use) ++slot;
  if (slot_out != nullptr) *slot_out = slot;
  if (stage.size() > 0) {
    host_mem_.store().write(local(buffer_off(slot)).value(), std::move(stage));
  }
  sim::Promise<nvme::Status> promise(sim_);
  auto fut = promise.future();
  co_await submit_io(io, slot, &promise);
  const nvme::Status st = co_await fut;
  if (st != nvme::Status::kSuccess) ++io_errors_;
  *status = st;
}

sim::Task Driver::read(Lba lba, Bytes bytes, Payload* out,
                       nvme::Status* status) {
  nvme::Status final_status = nvme::Status::kSuccess;
  std::vector<Payload> parts;
  Bytes done_bytes;
  while (done_bytes < bytes) {
    const Bytes n = std::min(bytes - done_bytes, max_transfer_);
    co_await slot_sem_->acquire();
    std::uint16_t slot = 0;
    while (slots_[slot].in_use) ++slot;
    sim::Promise<nvme::Status> promise(sim_);
    auto fut = promise.future();
    co_await submit_io(
        IoDesc{false, lba + done_bytes.value() / nvme::kLbaSize, n}, slot,
        &promise);
    nvme::Status st = co_await fut;
    if (st != nvme::Status::kSuccess) {
      ++io_errors_;
      for (std::uint32_t attempt = 1;
           st != nvme::Status::kSuccess && attempt <= cfg_.max_retries;
           ++attempt) {
        // The retry claims a fresh slot; `slot` tracks it so the buffer
        // read-back below picks up the retried command's data.
        co_await resubmit_one(
            IoDesc{false, lba + done_bytes.value() / nvme::kLbaSize, n},
            attempt, Payload{}, &st, &slot);
      }
      if (st != nvme::Status::kSuccess) {
        ++io_failed_;
        final_status = st;
      }
    }
    // Completion-path software cost (poll pickup, buffer handoff). This is
    // the calibrated host-stack term of Fig. 4c.
    co_await sim_.delay(host_.spdk_read_stack);
    if (out != nullptr) {
      parts.push_back(
          host_mem_.store().read(local(buffer_off(slot)).value(), n.value()));
    }
    done_bytes += n;
  }
  if (out != nullptr) *out = Payload::gather(parts);
  if (status != nullptr) *status = final_status;
}

sim::Task Driver::write(Lba lba, Payload data, nvme::Status* status) {
  nvme::Status final_status = nvme::Status::kSuccess;
  Bytes done_bytes;
  const Bytes bytes{data.size()};
  while (done_bytes < bytes) {
    const Bytes n = std::min(bytes - done_bytes, max_transfer_);
    co_await slot_sem_->acquire();
    std::uint16_t slot = 0;
    while (slots_[slot].in_use) ++slot;
    // Zero-copy model: the application produced the data in the pinned
    // buffer; make it visible to the device.
    host_mem_.store().write(local(buffer_off(slot)).value(),
                            data.slice(done_bytes.value(), n.value()));
    sim::Promise<nvme::Status> promise(sim_);
    auto fut = promise.future();
    co_await submit_io(
        IoDesc{true, lba + done_bytes.value() / nvme::kLbaSize, n}, slot,
        &promise);
    nvme::Status st = co_await fut;
    if (st != nvme::Status::kSuccess) {
      ++io_errors_;
      for (std::uint32_t attempt = 1;
           st != nvme::Status::kSuccess && attempt <= cfg_.max_retries;
           ++attempt) {
        // Restage the chunk: the failed attempt's buffer slot was recycled.
        co_await resubmit_one(
            IoDesc{true, lba + done_bytes.value() / nvme::kLbaSize, n}, attempt,
            data.slice(done_bytes.value(), n.value()), &st, nullptr);
      }
      if (st != nvme::Status::kSuccess) {
        ++io_failed_;
        final_status = st;
      }
    }
    co_await sim_.delay(host_.spdk_write_stack);
    done_bytes += n;
  }
  if (status != nullptr) *status = final_status;
}

// ---------------------------------------------------------------------------
// Pipelined workloads

sim::Task Driver::run_workload(const std::vector<IoDesc>& ios,
                               WorkloadResult* result) {
  const TimePs t0 = sim_.now();
  sim::WaitGroup wg(sim_);
  wg.add(static_cast<int>(ios.size()));

  // Completion promises live here so the poller can fulfill them while we
  // keep submitting; a helper task per command records latency and joins.
  struct Tracker {
    sim::Promise<nvme::Status> promise;
    TimePs submitted;
    IoDesc io;
  };
  std::vector<std::unique_ptr<Tracker>> trackers;
  trackers.reserve(ios.size());

  auto finisher = [](Driver* self, Tracker* t, WorkloadResult* res,
                     sim::WaitGroup* group) -> sim::Task {
    auto fut = t->promise.future();
    nvme::Status st = co_await fut;
    if (st != nvme::Status::kSuccess) {
      ++self->io_errors_;
      for (std::uint32_t attempt = 1;
           st != nvme::Status::kSuccess && attempt <= self->cfg_.max_retries;
           ++attempt) {
        co_await self->resubmit_one(t->io, attempt, Payload{}, &st, nullptr);
      }
      if (st != nvme::Status::kSuccess) ++self->io_failed_;
    }
    const TimePs stack = t->io.is_write ? self->host_.spdk_write_stack
                                        : self->host_.spdk_read_stack;
    // Latency includes any retries: it is the delivered completion time.
    res->latency.add(self->sim_.now() - t->submitted + stack);
    group->done();
  };

  for (const IoDesc& io : ios) {
    co_await slot_sem_->acquire();
    std::uint16_t slot = 0;
    while (slots_[slot].in_use) ++slot;
    auto tracker = std::make_unique<Tracker>(
        Tracker{sim::Promise<nvme::Status>(sim_), sim_.now(), io});
    sim_.spawn(finisher(this, tracker.get(), result, &wg));
    co_await submit_io(io, slot, &tracker->promise);
    trackers.push_back(std::move(tracker));
    result->bytes += io.bytes.value();
    ++result->commands;
  }
  co_await wg.wait();
  result->elapsed = sim_.now() - t0;
}

sim::Task Driver::run_sequential(bool is_write, Lba start_lba,
                                 Bytes total_bytes, Bytes cmd_bytes,
                                 WorkloadResult* result) {
  std::vector<IoDesc> ios;
  Lba lba = start_lba;
  for (Bytes off; off < total_bytes; off += cmd_bytes) {
    const Bytes n = std::min(cmd_bytes, total_bytes - off);
    ios.push_back(IoDesc{is_write, lba, n});
    lba = lba + n.value() / nvme::kLbaSize;
  }
  co_await run_workload(ios, result);
}

sim::Task Driver::run_random(bool is_write, Bytes total_bytes, Bytes cmd_bytes,
                             std::uint64_t region_blocks, std::uint64_t seed,
                             WorkloadResult* result) {
  Xoshiro256 rng(seed);
  const std::uint64_t blocks_per_cmd = cmd_bytes.value() / nvme::kLbaSize;
  std::vector<IoDesc> ios;
  for (Bytes off; off < total_bytes; off += cmd_bytes) {
    const Lba lba{rng.below(region_blocks - blocks_per_cmd)};
    ios.push_back(IoDesc{is_write, lba, cmd_bytes});
  }
  co_await run_workload(ios, result);
}

}  // namespace snacc::spdk
