#include "snacc/streamer.hpp"

#include <cassert>
#include <cstring>

namespace snacc::core {

namespace {

/// Chunk size for streaming read data back to the PE.
constexpr Bytes kStreamChunk{16 * KiB};

}  // namespace

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kUram:
      return "URAM";
    case Variant::kOnboardDram:
      return "On-board DRAM";
    case Variant::kHostDram:
      return "Host DRAM";
    case Variant::kHbm:
      return "HBM";
  }
  return "?";
}

Payload encode_read_command(Bytes addr, Bytes len) {
  std::vector<std::byte> raw(16);
  // snacc-lint: allow(value-escape): command wire encoding (memcpy image)
  const std::uint64_t a = addr.value();
  // snacc-lint: allow(value-escape): command wire encoding (memcpy image)
  const std::uint64_t l = len.value();
  std::memcpy(raw.data(), &a, 8);
  std::memcpy(raw.data() + 8, &l, 8);
  return Payload::bytes(std::move(raw));
}

bool decode_read_command(const Payload& p, Bytes* addr, Bytes* len) {
  if (!p.has_data() || p.size() < 16) return false;
  *addr = Bytes{nvme::le_scalar<std::uint64_t>(p, 0)};
  *len = Bytes{nvme::le_scalar<std::uint64_t>(p, 8)};
  return true;
}

Payload encode_write_address(Bytes addr) {
  // snacc-lint: allow(value-escape): command wire encoding (memcpy image)
  return nvme::le_payload(addr.value());
}

Bytes decode_write_address(const Payload& p) {
  return Bytes{nvme::le_scalar<std::uint64_t>(p)};
}

Payload encode_flush_command() { return nvme::le_payload(kFlushAddrBit); }

// ---------------------------------------------------------------------------

NvmeStreamer::NvmeStreamer(sim::Simulator& sim, pcie::Fabric& fabric,
                           pcie::PortId fpga_port, const FpgaProfile& fpga,
                           pcie::Addr ssd_bar, StreamerConfig cfg, Resources res)
    : sim_(sim),
      fabric_(fabric),
      fpga_port_(fpga_port),
      fpga_(fpga),
      ssd_bar_(ssd_bar),
      cfg_(cfg),
      res_(res),
      read_cmd_in_(sim, {fpga.stream_bytes_per_beat, fpga.clock_period, 16}),
      read_data_out_(sim, {fpga.stream_bytes_per_beat, fpga.clock_period, 16}),
      write_in_(sim, {fpga.stream_bytes_per_beat, fpga.clock_period, 16}),
      write_resp_out_(sim, {fpga.stream_bytes_per_beat, fpga.clock_period, 16}),
      sq_entries_(static_cast<std::uint16_t>(cfg.queue_depth + 1)),
      sq_slots_(sq_entries_),
      rob_(sim, cfg.out_of_order
                    ? static_cast<std::uint16_t>(cfg.queue_depth * 4)
                    : cfg.queue_depth),
      fetch_progress_(sim, false) {
  submit_queue_ = std::make_unique<sim::Channel<PendingSubmit>>(
      sim_, cfg.queue_depth);
  issue_credits_ = std::make_unique<sim::Semaphore>(sim_, cfg.queue_depth);
  alloc_mutex_ = std::make_unique<sim::Semaphore>(sim_, 1);
  prefetch_kick_ = std::make_unique<sim::Gate>(sim_, false);
  assert((res_.uram_prp != nullptr) != (res_.regfile_prp != nullptr) &&
         "exactly one PRP engine must be provided");
}

void NvmeStreamer::start() {
  sim_.spawn(read_cmd_loop());
  sim_.spawn(write_cmd_loop());
  sim_.spawn(submit_committer());
  sim_.spawn(retire_loop());
  sim_.spawn(prefetch_loop());
  // The watchdog is a periodic process; spawning it unconditionally would
  // keep the event queue non-empty forever (breaking sim.run()-to-quiescence
  // callers) and perturb event ordering of fault-free runs. Recovery only.
  if (cfg_.recovery && !cfg_.cmd_timeout.is_zero()) {
    sim_.spawn(watchdog_loop());
  }
}

// ---------------------------------------------------------------------------
// FPGA BAR hooks

Payload NvmeStreamer::serve_sq_read(Bytes local, Bytes len) const {
  // snacc-lint: allow(value-escape): BAR window serves raw SQE image bytes
  std::vector<std::byte> raw(len.value(), std::byte{0});
  // snacc-lint: allow(value-escape): BAR window serves raw SQE image bytes
  for (std::uint64_t i = 0; i < len.value(); ++i) {
    // snacc-lint: allow(value-escape): BAR window serves raw SQE image bytes
    const std::uint64_t a = local.value() + i;
    const std::uint64_t slot = a / nvme::kSqeSize;
    if (slot >= sq_slots_.size()) break;
    raw[i] = sq_slots_[slot][a % nvme::kSqeSize];
  }
  return Payload::bytes(std::move(raw));
}

void NvmeStreamer::on_cqe_write(Bytes local, const Payload& data) {
  assert(data.has_data() && data.size() >= nvme::kCqeSize);
  const auto cqe = nvme::CompletionEntry::decode(data.view());
  cq_head_ = static_cast<std::uint16_t>(
      // snacc-lint: allow(value-escape): CQE slot index from raw BAR offset
      (local.value() / nvme::kCqeSize + 1) % sq_entries_);
  if (cqe.status != nvme::Status::kSuccess) ++errors_;
  // A stale CQE (for a command the watchdog already declared lost and the
  // retirement engine resubmitted) is absorbed by the ROB and must not
  // release an issue credit it never held.
  const bool accepted = rob_.complete(slot_of(cqe.cid), cqe.status);
  if (cfg_.out_of_order && accepted) issue_credits_->release();
  prefetch_kick_->open();
}

Payload NvmeStreamer::serve_prp_read(Bytes local, Bytes len) const {
  if (res_.uram_prp != nullptr) return res_.uram_prp->serve(local, len);
  return res_.regfile_prp->serve(local, len);
}

PrpPair NvmeStreamer::make_prps(SlotIdx slot, Bytes absolute_offset,
                                Bytes len) {
  if (res_.uram_prp != nullptr) return res_.uram_prp->make(absolute_offset, len);
  return res_.regfile_prp->make(slot, absolute_offset, len);
}

// ---------------------------------------------------------------------------
// Submission

sim::Task NvmeStreamer::submit(const SubCommand& sub, bool is_write,
                               SlotIdx slot, Bytes absolute_buffer_offset) {
  nvme::SubmissionEntry sqe;
  sqe.cid = cid_of(slot);
  if (sub.flush) {
    // Flush barrier: no payload, no PRPs -- just the opcode and CID.
    sqe.opcode = static_cast<std::uint8_t>(nvme::IoOpcode::kFlush);
  } else {
    const PrpPair prps =
        make_prps(slot, absolute_buffer_offset, sub.buffer_bytes());
    sqe.opcode = static_cast<std::uint8_t>(is_write ? nvme::IoOpcode::kWrite
                                                    : nvme::IoOpcode::kRead);
    sqe.slba = sub.slba;
    sqe.nlb = static_cast<std::uint16_t>(sub.blocks - 1);
    sqe.prp1 = prps.prp1;
    sqe.prp2 = prps.prp2;
  }
  sq_slots_[sq_tail_] = sqe.encode();
  sq_tail_ = static_cast<std::uint16_t>((sq_tail_ + 1) % sq_entries_);
  ++commands_submitted_;
  rob_.at(slot).submitted_at = sim_.now();
  sim_.trace(sim::TraceCat::kStreamerCmd,
             is_write ? "submit-write" : "submit-read", slot, sub.slba);
  // Posted doorbell: the SQE is already visible in the FIFO window.
  (void)fabric_.write(fpga_port_,
                      ssd_bar_ + nvme::reg::sq_tail_doorbell(cfg_.nvme_qid),
                      nvme::le_payload(std::uint32_t{sq_tail_}));
  co_return;
}

sim::Task NvmeStreamer::ring_cq_doorbell() {
  (void)fabric_.write(fpga_port_,
                      ssd_bar_ + nvme::reg::cq_head_doorbell(cfg_.nvme_qid),
                      nvme::le_payload(std::uint32_t{cq_head_}));
  co_return;
}

// ---------------------------------------------------------------------------
// Read command path

sim::Task NvmeStreamer::read_cmd_loop() {
  while (true) {
    auto chunk = co_await read_cmd_in_.recv();
    if (!chunk) co_return;
    Bytes addr;
    Bytes len;
    if (!decode_read_command(chunk->data, &addr, &len) || len.is_zero()) {
      ++errors_;
      continue;
    }
    const std::uint64_t tag = next_user_tag_++;
    const auto subs = split_read(addr, len, SplitLimits{});
    for (const SubCommand& sub : subs) {
      co_await issue_credits_->acquire();
      co_await alloc_mutex_->acquire();
      Bytes off;
      co_await res_.read_ring->alloc(sub.buffer_bytes(), &off);
      RobEntry entry;
      entry.is_write = false;
      entry.sub = sub;
      entry.buffer_offset = off;
      entry.user_tag = tag;
      SlotIdx slot;
      co_await rob_.alloc(std::move(entry), &slot);
      alloc_mutex_->release();
      co_await sim_.delay(clock_cycles(fpga_.read_submit_cycles));
      co_await submit(sub, /*is_write=*/false, slot,
                      res_.read_region_base + off);
    }
  }
}

// ---------------------------------------------------------------------------
// Write command path

sim::Task NvmeStreamer::write_cmd_loop() {
  std::optional<axis::Chunk> spill;
  while (true) {
    auto first = co_await write_in_.recv();
    if (!first) co_return;
    const Bytes raw_addr = decode_write_address(first->data);
    // snacc-lint: allow(value-escape): wire-level flag bit test on the beat
    if ((raw_addr.value() & kFlushAddrBit) != 0) {
      // Flush barrier (docs/DURABILITY.md): a single TLAST beat, no data.
      // Rides the ordinary write pipeline -- credit, ROB slot, in-order
      // submission behind every earlier write -- but allocates no ring
      // space and carries no PRPs.
      if (!first->last) {
        ++errors_;
        continue;  // malformed: a flush beat must terminate its packet
      }
      SubCommand sub;
      sub.last = true;
      sub.flush = true;
      co_await issue_credits_->acquire();
      co_await alloc_mutex_->acquire();
      RobEntry entry;
      entry.is_write = true;
      entry.sub = sub;
      entry.user_tag = next_user_tag_++;
      SlotIdx slot;
      co_await rob_.alloc(std::move(entry), &slot);
      alloc_mutex_->release();
      co_await sim_.delay(clock_cycles(fpga_.write_submit_cycles));
      sim::Promise<sim::Done> fill_done(sim_);
      auto fill_fut = fill_done.future();
      fill_done.set(sim::Done{});  // nothing to buffer
      co_await submit_queue_->push(
          PendingSubmit(sub, slot, Bytes{}, std::move(fill_fut)));
      continue;
    }
    const Bytes addr = raw_addr;
    if (!aligned(addr, nvme::kLbaSize) || first->last) {
      ++errors_;
      continue;  // malformed packet: misaligned or missing data beats
    }
    const std::uint64_t tag = next_user_tag_++;
    Bytes dev_cursor = addr;
    bool last_seen = false;

    while (!last_seen) {
      const Bytes boundary =
          SplitLimits{}.max_transfer - dev_cursor % SplitLimits{}.max_transfer;
      std::vector<Payload> parts;
      std::uint64_t acc = 0;
      // snacc-lint: allow(value-escape): byte accounting vs raw Payload sizes
      while (acc < boundary.value() && !last_seen) {
        axis::Chunk piece;
        if (spill) {
          piece = std::move(*spill);
          spill.reset();
        } else {
          auto c = co_await write_in_.recv();
          if (!c) co_return;  // stream closed mid-packet
          piece = std::move(*c);
        }
        // snacc-lint: allow(value-escape): byte accounting vs raw Payload sizes
        const std::uint64_t room = boundary.value() - acc;
        if (piece.data.size() > room) {
          // Split the chunk at the 1 MB boundary; remainder spills over.
          axis::Chunk rest;
          rest.data = piece.data.slice(room, piece.data.size() - room);
          rest.last = piece.last;
          spill = std::move(rest);
          parts.push_back(piece.data.slice(0, room));
          acc += room;
        } else {
          acc += piece.data.size();
          last_seen = piece.last;
          parts.push_back(std::move(piece.data));
        }
      }
      // Pad the tail to a whole block (devices write whole LBAs). Real
      // payloads get real zero padding -- phantom padding would degrade the
      // whole gathered buffer and corrupt stored contents.
      const std::uint64_t padded =
          (acc + nvme::kLbaSize - 1) & ~(nvme::kLbaSize - 1);
      if (padded != acc) {
        bool all_real = true;
        for (const Payload& p : parts) all_real = all_real && p.has_data();
        parts.push_back(all_real ? Payload::filled(padded - acc, 0)
                                 : Payload::phantom(padded - acc));
      }

      SubCommand sub;
      sub.slba = lba_of(dev_cursor, nvme::kLbaSize);
      sub.blocks = static_cast<std::uint32_t>(padded / nvme::kLbaSize);
      sub.payload_bytes = Bytes{acc};
      sub.last = last_seen;

      co_await issue_credits_->acquire();
      co_await alloc_mutex_->acquire();
      Bytes off;
      co_await res_.write_ring->alloc(Bytes{padded}, &off);
      RobEntry entry;
      entry.is_write = true;
      entry.sub = sub;
      entry.buffer_offset = off;
      entry.user_tag = tag;
      SlotIdx slot;
      co_await rob_.alloc(std::move(entry), &slot);
      alloc_mutex_->release();
      co_await sim_.delay(clock_cycles(fpga_.write_submit_cycles));
      // "Write commands are forwarded to the NVMe device as soon as all
      // data from the user PE has been received and buffered" (Sec. 4.2).
      // The buffer fill overlaps with accepting the next command; the
      // committer submits strictly in order once the fill lands.
      sim::Promise<sim::Done> fill_done(sim_);
      auto fill_fut = fill_done.future();
      sim_.spawn(run_fill(res_.write_backend, off, Payload::gather(parts),
                          std::move(fill_done)));
      co_await submit_queue_->push(PendingSubmit(
          sub, slot, res_.write_region_base + off, std::move(fill_fut)));

      bytes_written_ += acc;
      dev_cursor += Bytes{padded};
    }
  }
}

sim::Task NvmeStreamer::run_fill(BufferBackend* backend, Bytes off,
                                 Payload data, sim::Promise<sim::Done> done) {
  co_await backend->fill(off, std::move(data));
  done.set(sim::Done{});
}

sim::Task NvmeStreamer::submit_committer() {
  while (true) {
    auto pending = co_await submit_queue_->pop();
    if (!pending) co_return;
    co_await pending->fill_done;
    co_await submit(pending->sub, /*is_write=*/true, pending->slot,
                    pending->absolute_offset);
  }
}

// ---------------------------------------------------------------------------
// Retirement (strictly in order) and read-out prefetch

sim::Task NvmeStreamer::retire_loop() {
  while (true) {
    co_await rob_.wait_head();
    RobEntry& head = rob_.head();
    bool failed = false;
    if (cfg_.recovery && head.status != nvme::Status::kSuccess) {
      if (head.retries < cfg_.max_retries) {
        // Bounded retry: a fresh SQE reuses the same ROB slot (CID) and the
        // same buffer range, with exponential backoff between attempts.
        const SlotIdx slot = rob_.head_slot();
        const bool is_write = head.is_write;
        const SubCommand sub = head.sub;
        const Bytes abs_off =
            (is_write ? res_.write_region_base : res_.read_region_base) +
            head.buffer_offset;
        // An error CQE released this command's OOO issue credit on arrival;
        // re-acquire it so the window stays bounded. A watchdog timeout had
        // no CQE -- the command still holds its credit, so acquiring again
        // would leak one per timeout.
        const bool had_cqe = head.status != nvme::Status::kWatchdogTimeout;
        const std::uint8_t attempt = ++head.retries;
        ++retries_;
        sim_.trace(sim::TraceCat::kStreamerRetire, "retry", slot, attempt);
        rob_.reopen_head();
        // The pairing release happened cross-coroutine: handle_cqe() gave
        // this command's credit back when the error CQE arrived, so this
        // acquire re-pairs with that release, not with the original issue,
        // and this pump parks at wait_head() holding the credit until then.
        if (cfg_.out_of_order && had_cqe) {
          // snacc-lint: allow(resource-pairing): handle_cqe() releases it.
          co_await issue_credits_->acquire();  // snacc-lint: allow(ts-credit)
        }
        co_await sim_.delay(cfg_.retry_backoff * (1ull << (attempt - 1)));
        co_await submit(sub, is_write, slot, abs_off);
        continue;
      }
      // Retries exhausted: quarantine the poisoned entry. It retires like a
      // successful one -- keeping delivery strictly in order and the window
      // moving -- but its data is replaced by an error-tagged placeholder.
      failed = true;
      ++quarantined_;
      if (cfg_.out_of_order &&
          head.status == nvme::Status::kWatchdogTimeout) {
        // The lost command's CQE never arrived to release its OOO credit.
        issue_credits_->release();
      }
      sim_.trace(sim::TraceCat::kStreamerRetire, "quarantine",
                 rob_.head_slot(), head.user_tag);
    }
    if (cfg_.recovery && !failed && head.retries > 0) ++recovered_;
    if (!head.is_write) {
      while (!failed && !head.fetched) {
        fetch_progress_.close();
        co_await fetch_progress_.opened();
      }
      const TimePs gap =
          cfg_.out_of_order ? cfg_.ooo_retire_gap : fpga_.retire_gap_read;
      co_await sim_.delay(gap);
      Payload out = failed
                        ? Payload::phantom(head.sub.payload_bytes)
                        : head.data.slice(Bytes{head.sub.trim_head},
                                          head.sub.payload_bytes);
      const bool last = head.sub.last;
      bytes_read_ += out.size();
      sim_.trace(sim::TraceCat::kStreamerRetire, "retire-read", head.user_tag,
                 out.size());
      res_.read_ring->free_oldest();
      rob_.retire();
      ++commands_retired_;
      if (!cfg_.out_of_order) issue_credits_->release();
      co_await ring_cq_doorbell();
      prefetch_kick_->open();
      // Stream to the PE; TLAST closes the user command. Quarantined data
      // carries the error TUSER tag on every beat so the PE can discard it.
      co_await axis::send_chunked(read_data_out_, std::move(out), kStreamChunk,
                                  last, failed ? kReadErrorUser : 0);
    } else {
      const TimePs gap =
          cfg_.out_of_order ? cfg_.ooo_retire_gap : fpga_.retire_gap_write;
      co_await sim_.delay(gap);
      const bool last = head.sub.last;
      const std::uint64_t tag = head.user_tag;
      sim_.trace(sim::TraceCat::kStreamerRetire, "retire-write", tag,
                 head.sub.payload_bytes);
      if (failed) failed_write_tags_.insert(tag);
      if (!head.sub.flush) res_.write_ring->free_oldest();
      rob_.retire();
      ++commands_retired_;
      if (!cfg_.out_of_order) issue_credits_->release();
      co_await ring_cq_doorbell();
      prefetch_kick_->open();
      if (last) {
        // Any quarantined sub of this user command poisons its response.
        const bool resp_error =
            cfg_.recovery && failed_write_tags_.erase(tag) > 0;
        co_await write_resp_out_.send_token(
            resp_error ? (tag | kWriteRespErrorBit) : tag);
      }
    }
  }
}

sim::Task NvmeStreamer::watchdog_loop() {
  while (true) {
    co_await sim_.delay(cfg_.watchdog_period);
    if (rob_.empty()) continue;
    // Only the head is checked: in-order retirement means a lost completion
    // anywhere in the window eventually becomes the head blocker, and its
    // submitted_at keeps accumulating age while it waits.
    RobEntry& head = rob_.head();
    if (head.completed || head.submitted_at.is_zero()) continue;
    if (sim_.now() - head.submitted_at < cfg_.cmd_timeout) continue;
    ++watchdog_timeouts_;
    ++errors_;
    sim_.trace(sim::TraceCat::kStreamerRetire, "watchdog-timeout",
               rob_.head_slot(), head.user_tag);
    rob_.fail_head(nvme::Status::kWatchdogTimeout);
  }
}

sim::Task NvmeStreamer::fetch_entry(RobEntry* entry) {
  Payload out;
  co_await res_.read_backend->drain(entry->buffer_offset,
                                    entry->sub.buffer_bytes(), &out);
  entry->data = std::move(out);
  entry->fetched = true;
  fetch_progress_.open();
}

sim::Task NvmeStreamer::prefetch_loop() {
  while (true) {
    prefetch_kick_->close();
    // Scan the retirement window and start read-outs for completed reads.
    const std::uint16_t window =
        static_cast<std::uint16_t>(fpga_.readout_prefetch);
    for (std::uint16_t i = 0; i < window; ++i) {
      RobEntry* e = rob_.peek(i);
      if (e == nullptr) break;
      // With recovery on, an error-completed read has no valid buffer
      // contents and is about to be reopened for retry (or quarantined);
      // fetching it would race with the retirement engine's reopen.
      if (!e->is_write && e->completed && !e->fetch_started &&
          !(cfg_.recovery && e->status != nvme::Status::kSuccess)) {
        e->fetch_started = true;
        sim_.spawn(fetch_entry(e));
      }
    }
    co_await prefetch_kick_->opened();
  }
}

}  // namespace snacc::core
