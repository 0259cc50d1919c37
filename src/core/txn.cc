#include "core/txn.h"

#include <algorithm>
#include <memory>

namespace hyperloop::core {

struct TxnState {
  uint64_t id = 0;
  std::vector<ReplicatedWal::Entry> writes;
  std::vector<uint32_t> lock_ids;
  size_t next_lock = 0;
  TransactionManager::TxnDone done;
};

void TransactionManager::execute(std::vector<ReplicatedWal::Entry> writes,
                                 std::vector<uint32_t> lock_ids,
                                 TxnDone done) {
  auto st = std::make_shared<TxnState>();
  st->id = next_txn_id_++;
  st->writes = std::move(writes);
  st->lock_ids = std::move(lock_ids);
  std::sort(st->lock_ids.begin(), st->lock_ids.end());
  st->lock_ids.erase(std::unique(st->lock_ids.begin(), st->lock_ids.end()),
                     st->lock_ids.end());
  st->done = std::move(done);
  acquire_next(std::move(st));
}

// Releases locks [0, held) at once; the last release's ACK reports the
// abort, since gMEMCPY ACKs arrive in issue order.
void TransactionManager::release_and_abort(std::shared_ptr<TxnState> st,
                                           size_t held) {
  if (held == 0) {
    ++stats_.aborted;
    st->done(false);
    return;
  }
  for (size_t i = 0; i + 1 < held; ++i) locks_.wr_unlock(st->lock_ids[i], {});
  const uint32_t last = st->lock_ids[held - 1];
  locks_.wr_unlock(last, [this, st = std::move(st)] {
    ++stats_.aborted;
    st->done(false);
  });
}

void TransactionManager::acquire_next(std::shared_ptr<TxnState> st) {
  if (st->next_lock < st->lock_ids.size()) {
    const uint32_t id = st->lock_ids[st->next_lock];
    const uint64_t owner = st->id;
    locks_.wr_lock(id, owner, [this, st = std::move(st)](bool ok) mutable {
      if (!ok) {
        const size_t held = st->next_lock;
        release_and_abort(std::move(st), held);
        return;
      }
      ++st->next_lock;
      acquire_next(std::move(st));
    });
    return;
  }

  // All locks held: append. Its ACK is the commit point: apply, release
  // behind the apply on the gMEMCPY ring, report (txn.h). The batch that
  // applies the record may be a concurrent transaction's, and truncation
  // runs on without us.
  const bool ok = wal_.append(st->writes, [this, st](uint64_t) {
    wal_.execute_and_advance(ReplicatedWal::Done{});
    for (uint32_t id : st->lock_ids) locks_.wr_unlock(id, {});
    ++stats_.committed;
    st->done(true);
  });
  if (!ok) {
    // Log full: every committed record gets an execute, which truncates
    // it, so space frees up as in-flight transactions drain — retry after
    // a short backoff. (The WAL asserts that a single record always fits
    // in an empty log.)
    loop_.schedule_after(sim::usec(100),
                         [this, st = std::move(st)] { acquire_next(st); });
  }
}

}  // namespace hyperloop::core
