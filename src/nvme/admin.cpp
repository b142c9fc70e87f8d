#include "nvme/admin.hpp"

#include <cassert>

namespace snacc::nvme {

namespace {

constexpr std::uint16_t kEntries = 16;

}  // namespace

NvmeAdmin::NvmeAdmin(sim::Simulator& sim, pcie::Fabric& fabric,
                     pcie::HostMemory& host_mem, pcie::Addr host_window_base,
                     Ssd& ssd, Bytes region_local)
    : sim_(sim),
      fabric_(fabric),
      host_mem_(host_mem),
      host_window_base_(host_window_base),
      ssd_(ssd),
      region_(region_local),
      sq_(QueueConfig{0, host_window_base + region_local, kEntries}),
      cq_(QueueConfig{0, host_window_base + region_local + Bytes{kPageSize},
                      kEntries}) {}

sim::Task NvmeAdmin::bring_up() {
  const pcie::PortId root = fabric_.root_port();
  const pcie::Addr bar = ssd_.bar_base();
  co_await fabric_.write(root, bar + reg::kAsq,
                         le_payload(sq_.config().base.value()));
  co_await fabric_.write(root, bar + reg::kAcq,
                         le_payload(cq_.config().base.value()));
  const std::uint32_t aqa = (kEntries - 1) | ((kEntries - 1u) << 16);
  co_await fabric_.write(root, bar + reg::kAqa, le_payload(aqa));
  co_await fabric_.write(root, bar + reg::kCc, le_payload(1u));
  while (true) {
    auto rr = co_await fabric_.read(root, bar + reg::kCsts, Bytes{4});
    if (le_scalar<std::uint32_t>(rr.data) & 1) co_return;
    co_await sim_.delay(us(10));
  }
}

sim::Task NvmeAdmin::identify(IdentifyController* out) {
  SubmissionEntry sqe;
  sqe.opcode = static_cast<std::uint8_t>(AdminOpcode::kIdentify);
  sqe.prp1 = host_window_base_ + region_ + Bytes{2 * kPageSize};
  sqe.cdw10 = 1;
  Status st = Status::kSuccess;
  co_await command(sqe, &st);
  assert(st == Status::kSuccess);
  *out = IdentifyController::decode(
      host_mem_.store().read(region_.value() + 2 * kPageSize, kPageSize));
}

sim::Task NvmeAdmin::create_io_queues(std::uint16_t qid, pcie::Addr sq_base,
                                      pcie::Addr cq_base, std::uint16_t entries,
                                      Status* status) {
  SubmissionEntry create_cq;
  create_cq.opcode = static_cast<std::uint8_t>(AdminOpcode::kCreateIoCq);
  create_cq.prp1 = cq_base;
  create_cq.cdw10 = qid | (static_cast<std::uint32_t>(entries - 1) << 16);
  create_cq.cdw11 = 1;
  co_await command(create_cq, status);
  if (status != nullptr && *status != Status::kSuccess) co_return;

  SubmissionEntry create_sq;
  create_sq.opcode = static_cast<std::uint8_t>(AdminOpcode::kCreateIoSq);
  create_sq.prp1 = sq_base;
  create_sq.cdw10 = qid | (static_cast<std::uint32_t>(entries - 1) << 16);
  create_sq.cdw11 = (static_cast<std::uint32_t>(qid) << 16) | 1;
  co_await command(create_sq, status);
}

sim::Task NvmeAdmin::command(SubmissionEntry sqe, Status* status) {
  sqe.cid = Cid{next_cid_++};
  auto raw = sqe.encode();
  host_mem_.store().write((sq_.next_slot_addr() - host_window_base_).value(),
                          Payload::bytes({raw.begin(), raw.end()}));
  const std::uint16_t tail = sq_.advance_tail();
  co_await fabric_.write(fabric_.root_port(),
                         ssd_.bar_base() + reg::sq_tail_doorbell(0),
                         le_payload(std::uint32_t{tail}));
  while (true) {
    Payload raw_cqe = host_mem_.store().read(
        (cq_.head_addr() - host_window_base_).value(), kCqeSize);
    if (raw_cqe.has_data()) {
      auto cqe = CompletionEntry::decode(raw_cqe.view());
      if (cq_.is_new(cqe) && cqe.cid == sqe.cid) {
        sq_.update_head(cqe.sq_head);
        if (status != nullptr) *status = cqe.status;
        const std::uint16_t head = cq_.advance();
        co_await fabric_.write(fabric_.root_port(),
                               ssd_.bar_base() + reg::cq_head_doorbell(0),
                               le_payload(std::uint32_t{head}));
        co_return;
      }
    }
    co_await sim_.delay(us(1));
  }
}

}  // namespace snacc::nvme
