// Replicated document store — the MongoDB case study (§5.2).
//
// The store is split into a front end (query parsing + coordination,
// running as a process on the primary server) and a back end (the
// replicated region on the chain). Every write is a full ACID transaction
// through the TransactionManager: group write locks (gCAS), oplog append
// (gWRITE+gFLUSH), ExecuteAndAdvance (gMEMCPY+gFLUSH), unlock — the §5.2
// flow, with wrLock/wrUnlock surrounding ExecuteAndAdvance. A write
// reports at the durable append; its unlock is a gMEMCPY issued right
// behind ExecuteAndAdvance's (core/txn.h), so a reader that read-locks a
// replica after the report still waits for the record to land there.
// Reads take a read lock on replica 0 and read the client's copy by
// default; an attached RemoteReader serves them from a chain replica
// instead (one-sided RDMA). Once the value is read under the lock it is
// fixed, so a read reports then: it issues its read unlock first and
// does not wait for it. A locked read thus waits for the lock's one
// round trip (plus the one-sided read), and every later lock op of
// this client, a read_modify_write's write lock included, executes
// behind the unlock on the gCAS ring (core/group.h), so it never meets
// the client's own read count. tests/linearizability_test.cc checks
// both read paths' histories, read-modify-writes included.
//
// The store runs on one region slice with one oplog, lock table and
// transaction manager. Documents live in its DB area in the slot format
// of apps/slot_table.h.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/slot_table.h"
#include "apps/storage_engine.h"
#include "core/lock.h"
#include "core/remote_reader.h"
#include "core/server.h"
#include "core/txn.h"
#include "core/wal.h"

namespace hyperloop::apps {

class DocStore : public StorageEngine {
 public:
  struct Config {
    core::RegionLayout layout;
    uint32_t value_size = 1024;
    /// Front-end CPU per operation (parse, plan, marshal) — MongoDB's
    /// software stack cost, which the paper notes dominates what remains
    /// after offload.
    sim::Duration op_cpu = sim::usec(4);
    /// Take read locks for reads (required for consistent replica reads).
    bool use_read_locks = true;
    /// Oplog group-commit tuning (staged-window depth, latency clock).
    core::ReplicatedWal::Options wal;
  };

  DocStore(core::ReplicationGroup& group, core::Server& client, Config cfg);

  /// Serves reads from chain replicas through `reader` (owned by the
  /// caller), whose target i must be chain replica i. Each read takes
  /// the replica reader.next_replica() picks, read-locks it and reads the
  /// document from it.
  void set_remote_reader(core::RemoteReader* reader) { reader_ = reader; }

  // StorageEngine ---------------------------------------------------------
  void insert(uint64_t key, std::vector<uint8_t> value, Done done) override;
  void update(uint64_t key, std::vector<uint8_t> value, Done done) override;
  void read(uint64_t key, ReadDone done) override;
  void scan(uint64_t key, int count, Done done) override;
  void read_modify_write(uint64_t key, std::vector<uint8_t> value,
                         Done done) override;

  /// Control-path bulk load (pre-bench initialization): fills the DB area
  /// and replicates it in large chunks.
  void bulk_load(uint64_t n);

  core::ReplicatedWal& wal() { return wal_; }
  core::TransactionManager& txns() { return txns_; }
  core::GroupLockManager& locks() { return locks_; }

 private:
  uint32_t stripe(uint64_t key) const {
    return static_cast<uint32_t>(key % cfg_.layout.num_locks);
  }
  void write_doc(uint64_t key, std::vector<uint8_t> value, Done done);
  void finish_read(uint64_t key, size_t replica, ReadDone done);

  core::ReplicationGroup& group_;
  core::Server& client_;
  Config cfg_;
  SlotTable slots_;
  core::ReplicatedWal wal_;
  core::GroupLockManager locks_;
  core::TransactionManager txns_;
  core::RemoteReader* reader_ = nullptr;
  sim::ProcessId client_pid_;
};

}  // namespace hyperloop::apps
