#include "spdk/driver.hpp"

#include <cassert>
#include <cstring>
#include <memory>

namespace snacc::spdk {

namespace {

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
      io_sq_(nvme::QueueConfig{kIoQid, global(io_sq_off()),
                               static_cast<std::uint16_t>(cfg.queue_depth + 1)}),
      io_cq_(nvme::QueueConfig{kIoQid, global(io_cq_off()),
                               static_cast<std::uint16_t>(cfg.queue_depth + 1)}) {
  slots_.resize(cfg.queue_depth);
  slot_sem_ = std::make_unique<sim::Semaphore>(sim_, cfg.queue_depth);
}

// ---------------------------------------------------------------------------
// Bring-up

sim::Task Driver::init() {
  nvme::NvmeAdmin admin(sim_, fabric_, host_mem_, host_window_base_, ssd_,
                        local(Bytes{}));
  co_await admin.bring_up();
  co_await admin.identify(&identify_);
  if (identify_.max_transfer_bytes != 0) {
    max_transfer_ = Bytes{identify_.max_transfer_bytes};
  }
  nvme::Status st = nvme::Status::kSuccess;
  co_await admin.create_io_queues(kIoQid, io_sq_.config().base,
                                  io_cq_.config().base,
                                  io_sq_.config().entries, &st);
  // A queue depth beyond the controller's limit fails here; I/O must not
  // start on queues that do not exist.
  initialized_ = st == nvme::Status::kSuccess;
}

sim::Task Driver::ring_doorbell(Bytes reg, std::uint16_t value) {
  // MMIO doorbells are posted writes: the CPU pays the store cost but does
  // not wait for delivery (SQE bytes are already globally visible).
  cpu_.charge(host_.doorbell_write);
  co_await sim_.delay(host_.doorbell_write);
  (void)fabric_.write(fabric_.root_port(), ssd_.bar_base() + reg,
                      nvme::le_payload(std::uint32_t{value}));
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
  co_await ring_doorbell(nvme::reg::sq_tail_doorbell(kIoQid), tail);

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
        co_await ring_doorbell(nvme::reg::cq_head_doorbell(kIoQid), head);
      }
    }
    if (!found) {
      cpu_.charge(cfg_.poll_interval);
      co_await sim_.delay(cfg_.poll_interval);
    }
  }
  poller_running_ = false;
}

sim::Task Driver::claim_slot(std::uint16_t* slot) {
  co_await slot_sem_->acquire();
  std::uint16_t s = 0;
  while (slots_[s].in_use) ++s;
  *slot = s;
}

sim::Task Driver::submit_and_wait(const IoDesc& io, const Payload& stage,
                                  std::uint16_t* slot, nvme::Status* status) {
  co_await claim_slot(slot);
  if (stage.size() > 0) {
    host_mem_.store().write(local(buffer_off(*slot)).value(), stage);
  }
  sim::Promise<nvme::Status> promise(sim_);
  auto fut = promise.future();
  co_await submit_io(io, *slot, &promise);
  *status = co_await fut;
}

sim::Task Driver::retry(const IoDesc& io, const Payload& stage,
                        std::uint16_t* slot, nvme::Status* status) {
  ++io_errors_;
  for (std::uint32_t attempt = 1;
       *status != nvme::Status::kSuccess && attempt <= cfg_.max_retries;
       ++attempt) {
    ++io_retries_;
    co_await sim_.delay(cfg_.retry_backoff * (1ull << (attempt - 1)));
    co_await submit_and_wait(io, stage, slot, status);
    if (*status != nvme::Status::kSuccess) ++io_errors_;
  }
  if (*status != nvme::Status::kSuccess) ++io_failed_;
}

sim::Task Driver::read(Lba lba, Bytes bytes, Payload* out,
                       nvme::Status* status) {
  nvme::Status final_status = nvme::Status::kSuccess;
  std::vector<Payload> parts;
  Bytes done_bytes;
  while (done_bytes < bytes) {
    const Bytes n = std::min(bytes - done_bytes, max_transfer_);
    const IoDesc io{false, lba + done_bytes.value() / nvme::kLbaSize, n};
    std::uint16_t slot = 0;
    nvme::Status st = nvme::Status::kSuccess;
    co_await submit_and_wait(io, Payload{}, &slot, &st);
    if (st != nvme::Status::kSuccess) {
      // A retry claims a fresh slot; `slot` tracks it so the buffer
      // read-back below picks up the retried command's data.
      co_await retry(io, Payload{}, &slot, &st);
      if (st != nvme::Status::kSuccess) final_status = st;
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
    const IoDesc io{true, lba + done_bytes.value() / nvme::kLbaSize, n};
    // Zero-copy model: the application produced the data in the pinned
    // buffer; staging makes it visible to the device.
    const Payload chunk = data.slice(done_bytes.value(), n.value());
    std::uint16_t slot = 0;
    nvme::Status st = nvme::Status::kSuccess;
    co_await submit_and_wait(io, chunk, &slot, &st);
    if (st != nvme::Status::kSuccess) {
      co_await retry(io, chunk, &slot, &st);
      if (st != nvme::Status::kSuccess) final_status = st;
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
      std::uint16_t slot = 0;
      co_await self->retry(t->io, Payload{}, &slot, &st);
    }
    const TimePs stack = t->io.is_write ? self->host_.spdk_write_stack
                                        : self->host_.spdk_read_stack;
    // Latency includes any retries: it is the delivered completion time.
    res->latency.add(self->sim_.now() - t->submitted + stack);
    group->done();
  };

  for (const IoDesc& io : ios) {
    std::uint16_t slot = 0;
    co_await claim_slot(&slot);
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
