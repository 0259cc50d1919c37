// Completion queues.
//
// Besides the usual poll/notify interface, each CQ keeps a *monotonic
// completion counter*. That counter is what CORE-Direct WAIT WQEs observe:
// a WAIT posted with absolute threshold T unblocks its queue once the
// target CQ has seen >= T completions. HyperLoop's replica chains are
// built entirely from these counters (recv CQ of the upstream QP, send CQ
// of the local loopback QP).
//
// Datapath notes: CQEs live in a flat power-of-two ring (grown to the
// workload's high-water mark, then allocation-free), and the notify /
// watcher callbacks use SmallFn inline storage so arming a notification
// never heap-allocates.
#pragma once

#include <cstdint>

#include "sim/ring.h"
#include "sim/small_fn.h"

namespace hyperloop::rdma {

/// Completion status.
enum class CqStatus : uint8_t {
  kSuccess = 0,
  kRemoteAccessError = 1,  ///< rkey/bounds/permission violation at responder
  kLocalProtectionError = 2,
};

/// A completion entry.
struct Cqe {
  uint64_t wr_id = 0;
  uint32_t qpn = 0;
  uint8_t opcode = 0;  ///< rdma::Opcode of the completed WR
  CqStatus status = CqStatus::kSuccess;
  uint32_t byte_len = 0;
  uint32_t imm = 0;
  bool has_imm = false;
};

/// A completion queue with event notification and a WAIT-visible counter.
///
/// `capacity == 0` makes the CQ *counting-only*: pushes bump the counter
/// (and fire notify/watchers) but retain no CQE, so poll() always returns
/// false. HyperLoop's chain CQs are consumed exclusively through WAIT
/// thresholds and never polled — a counting-only CQ keeps them from
/// accumulating thousands of dead CQEs (and the ring growth that entails)
/// per ring wrap.
class CompletionQueue {
 public:
  explicit CompletionQueue(uint32_t id, size_t capacity = 4096)
      : id_(id), capacity_(capacity) {}

  uint32_t id() const { return id_; }

  /// Pushes a completion: bumps the monotonic counter, enqueues the CQE
  /// (dropping the oldest on overflow), runs NIC-internal watchers (WAIT
  /// re-evaluation), then fires the armed notify callback. push() touches
  /// nothing after the notify returns, so the callback may destroy the CQ.
  void push(const Cqe& cqe);

  /// Polls one CQE. Returns false if empty.
  bool poll(Cqe* out);

  /// Drains up to `max` CQEs into `out`; returns the number drained.
  size_t poll_many(Cqe* out, size_t max);

  size_t available() const { return queue_.size(); }

  /// Monotonic count of completions ever pushed (WAIT threshold domain).
  uint64_t completion_count() const { return completion_count_; }

  /// Arms one-shot event notification (ibv_req_notify_cq semantics): the
  /// callback fires on the next push, then must be re-armed.
  void set_notify(sim::SmallFn<void()> fn) { notify_ = std::move(fn); }
  void arm_notify() { armed_ = true; }

  /// NIC-internal hook, fired on *every* push with the new counter value;
  /// used to wake queues blocked on WAIT WQEs.
  void set_counter_watcher(sim::SmallFn<void(uint64_t)> fn) {
    watcher_ = std::move(fn);
  }

  uint64_t dropped() const { return dropped_; }

  /// Intrusive FIFO of QPs whose head WAIT WQE is blocked on this CQ:
  /// head/tail QPNs of a singly-linked list threaded through
  /// QueuePair::next_wait_qpn. Owned and maintained by the Nic; nothing
  /// else may touch these.
  uint32_t wait_head_qpn = 0;
  uint32_t wait_tail_qpn = 0;

 private:
  uint32_t id_;
  size_t capacity_;
  sim::Ring<Cqe> queue_;
  uint64_t completion_count_ = 0;
  uint64_t dropped_ = 0;
  bool armed_ = false;
  sim::SmallFn<void()> notify_;
  sim::SmallFn<void(uint64_t)> watcher_;
};

}  // namespace hyperloop::rdma
