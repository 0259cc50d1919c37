#include "core/lock.h"

#include <cassert>

namespace hyperloop::core {
namespace {

bool all_zero(const CasResult& values) {
  for (uint64_t v : values) {
    if (v != 0) return false;
  }
  return true;
}

}  // namespace

GroupLockManager::GroupLockManager(ReplicationGroup& group,
                                   RegionLayout layout, Config cfg)
    : group_(group), layout_(layout), cfg_(cfg) {}

void GroupLockManager::wr_lock(uint32_t lock_id, uint64_t owner,
                               LockDone done) {
  assert(owner != 0 && "owner id 0 means 'unlocked'");
  const uint32_t idx = wr_ops_.claim();
  WrOp& op = wr_ops_[idx];
  assert(!op.live);
  op.lock_id = lock_id;
  op.owner = owner;
  op.attempts_left = cfg_.max_attempts;
  op.live = true;
  op.held = false;
  op.done = std::move(done);
  wr_attempt(idx);
}

void GroupLockManager::wr_finish(uint32_t idx, bool acquired) {
  WrOp& op = wr_ops_[idx];
  LockDone done = std::move(op.done);
  op.live = false;
  wr_ops_.release(idx);
  done(acquired);
}

void GroupLockManager::wr_attempt(uint32_t idx) {
  WrOp& op = wr_ops_[idx];
  if (op.attempts_left <= 0) {
    wr_finish(idx, false);
    return;
  }
  if (op.held) {
    // The lock was held: probe the writer word everywhere, back to back,
    // until every replica reads it clear. Each probe is an attempt.
    --op.attempts_left;
    group_.gcas(layout_.lock_offset(op.lock_id), 0, 0, all_replicas(),
                [this, idx](const CasResult& words) {
                  wr_ops_[idx].held = !all_zero(words);
                  wr_attempt(idx);
                });
    return;
  }
  // Pipelined pair (see lock.h): set the writer word everywhere, then,
  // right behind it, read every replica's reader count.
  op.pending = 2;
  group_.gcas(layout_.lock_offset(op.lock_id), 0, op.owner, all_replicas(),
              [this, idx](const CasResult& words) {
                WrOp& op = wr_ops_[idx];
                op.acquired = ExecMap::none();
                for (size_t i = 0; i < words.size(); ++i) {
                  if (words[i] == 0) op.acquired.set(i);
                }
                if (--op.pending == 0) wr_settle(idx);
              });
  group_.gcas(layout_.reader_offset(op.lock_id), 0, 0, all_replicas(),
              [this, idx](const CasResult& counts) {
                WrOp& op = wr_ops_[idx];
                op.drained = all_zero(counts);
                if (--op.pending == 0) wr_settle(idx);
              });
}

void GroupLockManager::wr_settle(uint32_t idx) {
  WrOp& op = wr_ops_[idx];
  if (op.acquired == all_replicas()) {
    ++stats_.wr_acquired;
    if (op.drained) {
      wr_finish(idx, true);
    } else {
      wait_readers_drain(idx);
    }
    return;
  }
  ++stats_.wr_conflicts;
  op.held = true;
  if (op.acquired.empty()) {
    wr_attempt(idx);
    return;
  }
  // Partial acquisition: undo exactly where we succeeded (§4.2), then
  // probe.
  ++stats_.partial_undos;
  group_.gcas(layout_.lock_offset(op.lock_id), op.owner, 0, op.acquired,
              [this, idx](const CasResult&) { wr_attempt(idx); });
}

void GroupLockManager::wait_readers_drain(uint32_t idx) {
  WrOp& op = wr_ops_[idx];
  if (op.attempts_left <= 0) {
    // Give up: release the writer word we hold, then fail the caller.
    group_.gcas(layout_.lock_offset(op.lock_id), op.owner, 0, all_replicas(),
                [this, idx](const CasResult&) { wr_finish(idx, false); });
    return;
  }
  // gCAS(0 -> 0) is a NIC-side read of every replica's reader count,
  // re-issued as soon as the previous one returns. Each read is an
  // attempt.
  --op.attempts_left;
  group_.gcas(layout_.reader_offset(op.lock_id), 0, 0, all_replicas(),
              [this, idx](const CasResult& counts) {
                if (all_zero(counts)) {
                  wr_finish(idx, true);
                } else {
                  wait_readers_drain(idx);
                }
              });
}

void GroupLockManager::wr_unlock(uint32_t lock_id, Done done) {
  // A lock Done (64 B) fits inline in a gMEMCPY Done (96 B).
  group_.gmemcpy(layout_.zero_word_offset(), layout_.lock_offset(lock_id), 8,
                 /*flush=*/false, [d = std::move(done)]() mutable {
                   if (d) d();
                 });
}

void GroupLockManager::rd_lock(uint32_t lock_id, size_t replica,
                               LockDone done) {
  const uint32_t idx = rd_ops_.claim();
  RdOp& op = rd_ops_[idx];
  assert(!op.live);
  op.lock_id = lock_id;
  op.replica = replica;
  op.attempts_left = cfg_.max_attempts;
  op.live = true;
  op.guess = 0;  // first increment assumes no other reader
  op.writer = 0;
  op.done = std::move(done);
  rd_attempt(idx);
}

void GroupLockManager::rd_finish(uint32_t idx, bool acquired) {
  RdOp& op = rd_ops_[idx];
  LockDone done = std::move(op.done);
  op.live = false;
  rd_ops_.release(idx);
  done(acquired);
}

void GroupLockManager::rd_attempt(uint32_t idx) {
  RdOp& op = rd_ops_[idx];
  if (op.attempts_left <= 0) {
    rd_finish(idx, false);
    return;
  }
  const ExecMap one = ExecMap::one(op.replica);
  if (op.writer != 0) {
    // A writer was seen: probe the writer word back to back until it
    // clears. Probes never touch the count, so a waiting reader never
    // holds it up and starves the writer's drain. Each probe is an
    // attempt.
    --op.attempts_left;
    group_.gcas(layout_.lock_offset(op.lock_id), 0, 0, one,
                [this, idx](const CasResult& r) {
                  RdOp& op = rd_ops_[idx];
                  op.writer = r[op.replica];
                  rd_attempt(idx);
                });
    return;
  }
  // Pipelined pair (see lock.h): increment the reader count, then, right
  // behind it, read the writer word on the same replica.
  op.pending = 2;
  group_.gcas(layout_.reader_offset(op.lock_id), op.guess, op.guess + 1, one,
              [this, idx](const CasResult& r) {
                RdOp& op = rd_ops_[idx];
                op.count = r[op.replica];
                if (--op.pending == 0) rd_settle(idx);
              });
  group_.gcas(layout_.lock_offset(op.lock_id), 0, 0, one,
              [this, idx](const CasResult& r) {
                RdOp& op = rd_ops_[idx];
                op.writer = r[op.replica];
                if (--op.pending == 0) rd_settle(idx);
              });
}

void GroupLockManager::rd_settle(uint32_t idx) {
  RdOp& op = rd_ops_[idx];
  const bool incremented = op.count == op.guess;
  if (incremented && op.writer == 0) {
    ++stats_.rd_acquired;
    rd_finish(idx, true);
    return;
  }
  if (incremented) {
    // A writer slipped in ahead of the check: back out, then probe.
    cas_loop_add(layout_.reader_offset(op.lock_id), op.replica, -1,
                 op.guess + 1, [this, idx] { rd_attempt(idx); });
    return;
  }
  // The increment missed: retry it against the count it found, once the
  // writer word (if it was set) reads clear.
  op.guess = op.count;
  rd_attempt(idx);
}

void GroupLockManager::rd_unlock(uint32_t lock_id, size_t replica,
                                 Done done) {
  // The caller holds a count, so 1 is the likeliest value.
  cas_loop_add(layout_.reader_offset(lock_id), replica, -1, 1,
               std::move(done));
}

void GroupLockManager::cas_loop_add(uint64_t offset, size_t replica,
                                    int64_t delta, uint64_t guess,
                                    Done done) {
  const uint32_t idx = add_ops_.claim();
  AddOp& op = add_ops_[idx];
  assert(!op.live);
  op.offset = offset;
  op.replica = replica;
  op.delta = delta;
  op.guess = guess;
  op.live = true;
  op.done = std::move(done);
  add_attempt(idx);
}

void GroupLockManager::add_attempt(uint32_t idx) {
  AddOp& op = add_ops_[idx];
  const uint64_t desired =
      static_cast<uint64_t>(static_cast<int64_t>(op.guess) + op.delta);
  group_.gcas(op.offset, op.guess, desired, ExecMap::one(op.replica),
              [this, idx](const CasResult& r) {
                AddOp& op = add_ops_[idx];
                const uint64_t old = r[op.replica];
                if (old == op.guess) {
                  Done done = std::move(op.done);
                  op.live = false;
                  add_ops_.release(idx);
                  if (done) done();
                  return;
                }
                op.guess = old;
                add_attempt(idx);
              });
}

}  // namespace hyperloop::core
