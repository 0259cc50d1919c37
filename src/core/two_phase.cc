#include "core/two_phase.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <set>

namespace hyperloop::core {
namespace {

// Staging block layout: [count u32][pad u32] then per write
// [db_offset u64][len u32][pad u32][data, padded to 8].
std::vector<uint8_t> encode_staging(
    const std::vector<const TwoPhaseCoordinator::Write*>& writes) {
  size_t total = 8;
  for (const auto* w : writes) total += 16 + ((w->data.size() + 7) & ~7ull);
  std::vector<uint8_t> out(total, 0);
  const uint32_t count = static_cast<uint32_t>(writes.size());
  std::memcpy(out.data(), &count, 4);
  uint8_t* p = out.data() + 8;
  for (const auto* w : writes) {
    std::memcpy(p, &w->db_offset, 8);
    const uint32_t len = static_cast<uint32_t>(w->data.size());
    std::memcpy(p + 8, &len, 4);
    std::memcpy(p + 16, w->data.data(), w->data.size());
    p += 16 + ((w->data.size() + 7) & ~7ull);
  }
  return out;
}

std::vector<uint8_t> encode_status(uint64_t txn, uint64_t state) {
  std::vector<uint8_t> out(16);
  std::memcpy(out.data(), &txn, 8);
  std::memcpy(out.data() + 8, &state, 8);
  return out;
}

}  // namespace

struct TwoPhaseCoordinator::TxnCtx {
  uint64_t id = 0;
  std::vector<Write> writes;
  std::vector<size_t> parts;  // involved partitions, ascending
  std::vector<std::pair<size_t, uint32_t>> lock_order;
  TxnDone done;
};

TwoPhaseCoordinator::TwoPhaseCoordinator(sim::EventLoop& loop,
                                         std::vector<PartitionCtx> partitions)
    : loop_(loop), parts_(std::move(partitions)) {
  for ([[maybe_unused]] const auto& p : parts_) {
    assert(p.group != nullptr && p.wal != nullptr && p.locks != nullptr);
    assert(app_data_base() < p.layout.db_size());
  }
}

void TwoPhaseCoordinator::execute(std::vector<Write> writes, TxnDone done) {
  auto t = std::make_shared<TxnCtx>();
  t->id = next_txn_++;
  t->writes = std::move(writes);
  t->done = std::move(done);

  std::set<size_t> parts;
  std::set<std::pair<size_t, uint32_t>> locks;
  for (const Write& w : t->writes) {
    assert(w.partition < parts_.size());
    assert(w.db_offset >= app_data_base() && "write below app_data_base()");
    parts.insert(w.partition);
    locks.insert({w.partition, w.lock_id});
  }
  t->parts.assign(parts.begin(), parts.end());
  t->lock_order.assign(locks.begin(), locks.end());
  acquire_locks(std::move(t), 0);
}

void TwoPhaseCoordinator::acquire_locks(std::shared_ptr<TxnCtx> t,
                                        size_t idx) {
  if (idx == t->lock_order.size()) {
    prepare_step(std::move(t), 0);
    return;
  }
  const auto [part, lock] = t->lock_order[idx];
  const uint64_t owner = t->id;
  parts_[part].locks->wr_lock(
      lock, owner, [this, t = std::move(t), idx](bool ok) mutable {
        if (!ok) {
          // Release what we hold (in reverse) and abort; nothing was
          // logged.
          abort_release(std::move(t), idx);
          return;
        }
        acquire_locks(std::move(t), idx + 1);
      });
}

void TwoPhaseCoordinator::abort_release(std::shared_ptr<TxnCtx> t, size_t i) {
  if (i == 0) {
    finish(std::move(t), false);
    return;
  }
  const auto [part, lock] = t->lock_order[i - 1];
  parts_[part].locks->wr_unlock(lock, [this, t = std::move(t), i]() mutable {
    abort_release(std::move(t), i - 1);
  });
}

// Prepare partitions one at a time (simple and restartable under log
// backpressure); each step retries itself until its append is accepted.
// A full log is drained before the retry, as KvStore does: the records
// filling it may be prepare records of transactions that are themselves
// waiting for log space, and only run_execs would apply them otherwise.
// Every drained record is durable, so applying it early writes only what
// replay would: a prepare's staging block and PREPARED mark, or a commit
// record's writes (a transaction is committed once any of its commit
// records is durable).
void TwoPhaseCoordinator::prepare_step(std::shared_ptr<TxnCtx> t,
                                       size_t idx) {
  if (idx == t->parts.size()) {
    commit_step(std::move(t), 0);
    return;
  }
  const size_t part = t->parts[idx];
  std::vector<const Write*> mine;
  for (const Write& w : t->writes) {
    if (w.partition == part) mine.push_back(&w);
  }
  std::vector<ReplicatedWal::Entry> entries;
  entries.push_back({staging_offset(t->id), encode_staging(mine)});
  entries.push_back({status_offset(t->id), encode_status(t->id, kPrepared)});
  const bool ok = parts_[part].wal->append(
      entries, [this, t, idx](uint64_t) mutable {
        prepare_step(std::move(t), idx + 1);
      });
  if (!ok) {
    parts_[part].wal->execute_and_advance(ReplicatedWal::Done{});
    loop_.schedule_after(sim::usec(200), [this, t = std::move(t), idx] {
      prepare_step(t, idx);
    });
  }
}

// Phase 2, per partition in order: commit-record append, retried like a
// prepare. The global commit point is the last partition's durable
// append; run_execs follows.
void TwoPhaseCoordinator::commit_step(std::shared_ptr<TxnCtx> t,
                                      size_t idx) {
  if (idx == t->parts.size()) {
    run_execs(std::move(t));
    return;
  }
  const size_t part = t->parts[idx];
  std::vector<ReplicatedWal::Entry> entries;
  for (const Write& w : t->writes) {
    if (w.partition == part) entries.push_back({w.db_offset, w.data});
  }
  entries.push_back({status_offset(t->id), encode_status(t->id, kCommitted)});
  const bool ok = parts_[part].wal->append(
      entries, [this, t, idx](uint64_t) mutable {
        commit_step(std::move(t), idx + 1);
      });
  if (!ok) {
    parts_[part].wal->execute_and_advance(ReplicatedWal::Done{});
    loop_.schedule_after(sim::usec(200), [this, t = std::move(t), idx] {
      commit_step(t, idx);
    });
  }
}

void TwoPhaseCoordinator::run_execs(std::shared_ptr<TxnCtx> t) {
  // Past the global commit point: on each partition, apply and release
  // every lock there right behind the apply, on that partition's gMEMCPY
  // ring (core/txn.h has the ordering argument). Its prepare record
  // precedes its commit record in the same log, and a concurrent
  // transaction's batch may have claimed either; the release lands
  // behind them all the same.
  for (const size_t part : t->parts) {
    parts_[part].wal->execute_and_advance(ReplicatedWal::Done{});
    for (const auto& [p, lock] : t->lock_order) {
      if (p == part) parts_[part].locks->wr_unlock(lock, {});
    }
  }
  finish(std::move(t), true);
}

void TwoPhaseCoordinator::finish(std::shared_ptr<TxnCtx> t, bool ok) {
  if (ok) {
    ++committed_;
  } else {
    ++aborted_;
  }
  if (t->done) t->done(ok);
}

void TwoPhaseCoordinator::scan_status(
    size_t partition, std::vector<std::pair<uint64_t, uint64_t>>* out) const {
  const PartitionCtx& p = parts_[partition];
  for (uint32_t s = 0; s < kMaxTxnSlots; ++s) {
    uint64_t id = 0, state = 0;
    p.group->client_load(p.layout.db_base() + uint64_t{s} * 16, &id, 8);
    p.group->client_load(p.layout.db_base() + uint64_t{s} * 16 + 8, &state, 8);
    if (id != 0 && state != kNone) out->push_back({id, state});
  }
}

uint64_t TwoPhaseCoordinator::recover_partition(
    size_t partition, const std::vector<uint64_t>& committed_txns) {
  PartitionCtx& p = parts_[partition];
  uint64_t rolled_forward = 0;
  for (uint64_t txn : committed_txns) {
    uint64_t id = 0, state = 0;
    p.group->client_load(p.layout.db_base() + status_offset(txn), &id, 8);
    p.group->client_load(p.layout.db_base() + status_offset(txn) + 8, &state,
                         8);
    if (id != txn || state != kPrepared) continue;  // absent or already done

    // Roll forward: rebuild the final writes from the durable staging
    // block and commit them through the normal replicated path.
    const uint64_t stage = p.layout.db_base() + staging_offset(txn);
    uint32_t count = 0;
    p.group->client_load(stage, &count, 4);
    std::vector<ReplicatedWal::Entry> entries;
    uint64_t off = stage + 8;
    for (uint32_t i = 0; i < count; ++i) {
      uint64_t db_off = 0;
      uint32_t len = 0;
      p.group->client_load(off, &db_off, 8);
      p.group->client_load(off + 8, &len, 4);
      std::vector<uint8_t> data(len);
      p.group->client_load(off + 16, data.data(), len);
      entries.push_back({db_off, std::move(data)});
      off += 16 + ((len + 7) & ~7ull);
    }
    entries.push_back({status_offset(txn), encode_status(txn, kCommitted)});
    p.wal->append(entries, [wal = p.wal](uint64_t) {
      wal->execute_and_advance([] {});
    });
    ++rolled_forward;
  }
  return rolled_forward;
}

}  // namespace hyperloop::core
