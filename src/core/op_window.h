// Client-side credit window of one replication pipeline.
//
// Every ReplicationGroup backend issues a primitive (paper Table 1) into
// a pipeline that admits at most `credits` ops in flight and whose ACKs
// come back in chain order. OpWindow is that bookkeeping, written once for
// the HyperLoop (one window per primitive ring), Naïve, fan-out and TCP
// backends:
//
//   - the seq counter, and a direct-mapped power-of-two table of in-flight
//     slots. ACKs arrive in FIFO order, so live seqs span at most the
//     credit window and `seq & mask` never collides in a table at least
//     twice that wide (open() asserts it);
//   - the credit count, and a FIFO ring of ops parked for a credit;
//   - completion, in the order the simulated schedule depends on: free
//     the credit, run the callback, then re-issue at most one parked op.
//
// This is the one place group.h's park-behind rule is enforced: an op
// submitted while others are parked parks behind them, even when a
// completion has just freed a credit (the completing op's callback runs
// before the oldest parked op is re-issued).
//
// `Op` is the parked-op record: core::GroupOp for most backends, plus the
// extent list on HyperLoop's rings. The callbacks ride beside it. The slot table is sized
// at construction and the park ring grows to its high-water mark once, so
// the steady state allocates nothing.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/group.h"
#include "sim/ring.h"

namespace hyperloop::core {

template <typename Op>
class OpWindow {
 public:
  /// One in-flight op. `done` serves write-like primitives, `cas_done`
  /// serves gCAS; storing both flat (instead of one nested closure) keeps
  /// continuation state inside the Done/CasDone inline caps.
  struct Slot {
    uint32_t seq = 0;
    uint32_t acks = 0;  ///< ACKs still due before the op completes
    bool live = false;
    Done done;
    CasDone cas_done;
  };

  OpWindow() = default;
  /// At most `credits` ops in flight; `span` slots in the table (rounded
  /// up to a power of two), which must cover every seq that can be live
  /// at once.
  OpWindow(uint32_t credits, uint32_t span) : credits_(credits) {
    uint32_t n = 1;
    while (n < span) n <<= 1;
    slots_.resize(n);
    mask_ = n - 1;
  }

  /// Issues `op` through `issue(op, done, cas_done)` at once if a credit
  /// is free and no op is parked; otherwise parks it behind the parked
  /// ones.
  template <typename Issue>
  void submit(const Op& op, Done done, CasDone cas_done, Issue&& issue) {
    if (inflight_ >= credits_ || !parked_.empty()) {
      parked_.push_back(Parked{op, std::move(done), std::move(cas_done)});
      return;
    }
    ++inflight_;
    issue(op, std::move(done), std::move(cas_done));
  }

  /// Called by `issue`: gives the op the next seq and keeps its callbacks
  /// in that seq's slot until `acks` ACKs have arrived. Returns the seq.
  uint64_t open(Done done, CasDone cas_done, uint32_t acks = 1) {
    const uint64_t seq = next_seq_++;
    Slot& s = slots_[seq & mask_];
    assert(!s.live && "op table wrapped past the live window");
    s.seq = static_cast<uint32_t>(seq);
    s.acks = acks;
    s.live = true;
    s.done = std::move(done);
    s.cas_done = std::move(cas_done);
    return seq;
  }

  /// Counts one ACK for `seq` and returns the op's slot when that was its
  /// last one; the caller then passes the slot to complete(). A stale or
  /// duplicate ACK (no live slot holds `seq`) returns nullptr and changes
  /// nothing.
  Slot* ack(uint32_t seq) {
    Slot& s = slots_[seq & mask_];
    if (!s.live || s.seq != seq) return nullptr;
    return --s.acks == 0 ? &s : nullptr;
  }

  /// Completes the op in `slot`: frees its credit, runs its callback (a
  /// gCAS callback gets `cas_result()`), then re-issues at most one
  /// parked op through `issue`.
  template <typename ResultFn, typename Issue>
  void complete(Slot& slot, ResultFn&& cas_result, Issue&& issue) {
    slot.live = false;
    --inflight_;
    if (slot.cas_done) {
      CasDone handler = std::move(slot.cas_done);
      handler(cas_result());
    } else {
      Done handler = std::move(slot.done);
      if (handler) handler();
    }
    if (!parked_.empty() && inflight_ < credits_) {
      Parked next = std::move(parked_.front());
      parked_.pop_front();
      ++inflight_;
      issue(next.op, std::move(next.done), std::move(next.cas_done));
    }
  }

  /// stop(): drops every in-flight and parked op without running its
  /// callback and returns how many were dropped.
  uint64_t abort_all() {
    uint64_t n = 0;
    for (Slot& s : slots_) {
      if (!s.live) continue;
      s.live = false;
      s.done.reset();
      s.cas_done.reset();
      ++n;
    }
    n += parked_.size();
    parked_.clear();
    inflight_ = 0;
    return n;
  }

 private:
  struct Parked {
    Op op;
    Done done;
    CasDone cas_done;
  };

  uint32_t credits_ = 0;
  uint32_t inflight_ = 0;
  uint64_t next_seq_ = 0;
  std::vector<Slot> slots_;  ///< direct-mapped by seq & mask_
  uint32_t mask_ = 0;
  sim::Ring<Parked> parked_;  ///< ops waiting for a credit, FIFO
};

}  // namespace hyperloop::core
