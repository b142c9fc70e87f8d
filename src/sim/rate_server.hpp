// RateServer: fluid-model FIFO bandwidth server.
//
// Models a shared serial resource (a PCIe link direction, a DRAM channel,
// an Ethernet wire, a NAND program pipe): each acquisition occupies the
// server for `per_op + bytes/rate`, requests are served in call order, and
// the awaiting coroutine resumes when its occupation ends. This collapses
// per-beat cycle simulation into O(1) events per transaction while
// preserving aggregate bandwidth and queueing delay.
//
// Only the head of a server's queue sits in the domain's event heap; the
// waiters behind it are parked in the server's own FIFO, each under the
// (time, seq) key it reserved when it suspended, and the head links the
// next one into the heap when it fires. Grant times never decrease in call
// order and sequence numbers always increase, so the FIFO is already sorted
// by the heap key and every event fires exactly when and in the order it
// would if each waiter had been linked at suspension -- while a link with
// thousands of queued TLPs costs the heap one entry instead of thousands
// (docs/MODEL.md, "Scheduler internals").
//
// Lifetime: a server must outlive its pending acquirers, because the head's
// firing reads the server. At teardown the parked frames are destroyed with
// the rest of the suspended coroutines, without ever firing.
#pragma once

#include <algorithm>
#include <cassert>
#include <coroutine>
#include <cstdint>

#include "common/units.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"

namespace snacc::sim {

class RateServer {
 public:
  /// `gb_s` is decimal GB/s; `per_op` a fixed per-acquisition overhead.
  RateServer(Simulator& sim, double gb_s, TimePs per_op = TimePs{})
      : sim_(&sim), gb_s_(gb_s), per_op_(per_op) {}

  void set_rate(double gb_s) { gb_s_ = gb_s; }
  double rate() const { return gb_s_; }

  /// Awaitable: completes when the server has finished serializing `bytes`.
  /// The occupation window is computed eagerly (FIFO order is the *call*
  /// order, so the result must be awaited right away) and the awaiter's own
  /// timer node is the one event per acquisition, no allocation. A
  /// zero-byte acquire still occupies `per_op` (+ `extra`): command-only
  /// traffic serializes like everything else. set_rate() applies to
  /// subsequent acquisitions only; in-flight occupations keep their
  /// computed windows.
  [[nodiscard]] auto acquire(std::uint64_t bytes, TimePs extra = TimePs{}) {
    const TimePs start = std::max(sim_->now(), next_free_);
    const TimePs occupy = per_op_ + transfer_time(bytes, gb_s_) + extra;
    next_free_ = start + occupy;
    total_bytes_ += bytes;
    ++total_ops_;
    busy_time_ += occupy;
    return Awaiter{{}, this, next_free_};
  }
  [[nodiscard]] auto acquire(Bytes bytes, TimePs extra = TimePs{}) {
    return acquire(bytes.value(), extra);
  }

  /// Time at which the server becomes idle (for utilization probes).
  TimePs busy_until() const { return next_free_; }
  std::uint64_t total_bytes() const { return total_bytes_; }
  std::uint64_t total_ops() const { return total_ops_; }
  TimePs busy_time() const { return busy_time_; }

  /// Fraction of `elapsed` the server spent occupied (clamped to 1.0 --
  /// busy_time can exceed wall time transiently because occupations are
  /// charged eagerly at acquire()).
  double utilization(TimePs elapsed) const {
    if (elapsed.value() == 0) return 0.0;
    const double u = static_cast<double>(busy_time_.value()) /
                     static_cast<double>(elapsed.value());
    return u < 1.0 ? u : 1.0;
  }

 private:
  struct Awaiter : EventNode {
    RateServer* server;
    TimePs wake;
    bool await_ready() const noexcept { return wake <= server->sim_->now(); }
    void await_suspend(std::coroutine_handle<> coro) {
      h = coro;
      fire = &RateServer::grant;
      server->park(*this);
    }
    void await_resume() const noexcept {}
  };
  /// A waiter behind the head: the heap key it reserved at suspension.
  struct Parked {
    TimePs t;
    std::uint64_t seq;
    EventNode* node;
  };

  void park(Awaiter& a) {
    if (!head_linked_) {
      head_linked_ = true;
      sim_->schedule(a, a.wake);
      return;
    }
    assert(parked_.empty() || parked_.back().t <= a.wake);
    parked_.push_back(Parked{a.wake, sim_->take_seq(), &a});
  }

  /// The head's firing: link the next parked waiter under its reserved key
  /// (larger than the head's, so heap order is unchanged), then resume.
  static void grant(EventNode& n) {
    RateServer& s = *static_cast<Awaiter&>(n).server;
    if (s.parked_.empty()) {
      s.head_linked_ = false;
    } else {
      const Parked next = s.parked_.pop_front();
      s.sim_->schedule_seq(*next.node, next.t, next.seq);
    }
    n.h.resume();
  }

  Simulator* sim_;
  double gb_s_;
  TimePs per_op_;
  TimePs next_free_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_ops_ = 0;
  TimePs busy_time_;
  bool head_linked_ = false;  // the oldest pending waiter is in the heap
  RingBuf<Parked> parked_;    // the pending waiters behind it, in order
};

}  // namespace snacc::sim
