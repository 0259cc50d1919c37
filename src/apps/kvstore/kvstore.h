// Replicated embedded key-value store — the RocksDB case study (§5.1).
//
// Architecture, mirroring the paper's modified RocksDB:
//   - The client (the process embedding the library) serves all requests
//     from an in-memory table and appends every write to a *replicated*
//     durable WAL via Append (gWRITE + gFLUSH). That append is the entire
//     critical path of a write.
//   - Replicas wake up periodically (off the critical path) to bring
//     their in-memory tables in sync with the replicated log, so reads
//     from replicas are eventually consistent (§5.1). A replica's table
//     is an image of its DB area with the log applied; when the log ring
//     laps a replica's sync, the image reloads from the DB area.
//   - When the log fills beyond a threshold, the store checkpoints: it
//     ExecuteAndAdvance's records into the database area (the "dump
//     in-memory data and truncate the log" cycle), off the critical path.
//     Like a RocksDB memtable flush, a checkpoint batch writes only the
//     newest version of each key it holds (core/wal.h, absorption).
//   - Recovery: rebuild the table from the database area plus a replay of
//     the committed log suffix.
//
// Sharded mode (Config::shards > 1, DESIGN.md "Sharded datapath"): the
// keyspace is partitioned key % shards, each shard owning its own region
// slice (memtable, WAL segment, checkpoint cycle). Under a
// ShardedGroup whose range router spans one slice, every shard's write
// path rides its own replication chain — and a paused shard (its chain
// lost a replica) defers only its own keys' writes while the others keep
// committing.
//
// Records live in the DB area in the slot format of apps/slot_table.h.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "apps/slot_table.h"
#include "apps/storage_engine.h"
#include "core/server.h"
#include "core/sharded_reader.h"
#include "core/wal.h"

namespace hyperloop::apps {

class KvStore : public StorageEngine {
 public:
  struct Config {
    /// With shards == 1: the whole region. With shards > 1: the layout of
    /// ONE slice (shard s uses layout.shard_slice(s)); the group's region
    /// must cover shards * layout.region_size bytes.
    core::RegionLayout layout;
    uint32_t shards = 1;
    uint32_t value_size = 1024;
    /// CPU per operation on the client process (serialize + memtable).
    sim::Duration op_cpu = sim::usec(2);
    /// Run the replicas' off-path memtable sync.
    bool replicas_sync = true;
    /// WAL group-commit tuning (staged-window depth, latency clock).
    core::ReplicatedWal::Options wal{};
  };

  /// `client` must be the coordinator server of `group`; `replica_servers`
  /// are the replica machines (used to run the off-path sync processes).
  KvStore(core::ReplicationGroup& group, core::Server& client,
          std::vector<core::Server*> replica_servers, Config cfg);
  ~KvStore() override;

  // StorageEngine ---------------------------------------------------------
  void insert(uint64_t key, std::vector<uint8_t> value, Done done) override;
  void update(uint64_t key, std::vector<uint8_t> value, Done done) override;
  void read(uint64_t key, ReadDone done) override;
  void scan(uint64_t key, int count, Done done) override;
  void read_modify_write(uint64_t key, std::vector<uint8_t> value,
                         Done done) override;

  /// Remote-read mode: scans leave the client memtable and instead read
  /// the replicated DB image from chain replicas via one-sided RDMA — a
  /// cross-slice scan becomes ONE scatter batch (one extent per shard,
  /// one doorbell per chain) instead of a client-side slice walk. The
  /// reader's router must partition the region like the store's slices.
  /// Eventually consistent: the DB image holds checkpointed/bulk-loaded
  /// records, not un-checkpointed memtable tail. Reader owned by caller.
  void set_sharded_reader(core::ShardedReader* reader) { sreader_ = reader; }

  /// Eventually-consistent read from a replica's table.
  bool replica_read(size_t replica, uint64_t key,
                    std::vector<uint8_t>* value) const;

  /// Number of records a replica's table currently holds.
  size_t replica_record_count(size_t replica) const;

  /// Rebuilds the client memtable from the durable region image (crash
  /// recovery): DB-area scan plus committed-log replay, per shard.
  void recover();

  /// Loads `n` initial records synchronously (bulk load before a bench);
  /// returns once all appends are issued — run the loop to quiesce.
  void bulk_load(uint64_t n);

  /// Which shard owns `key` (key % shards).
  uint32_t shard_of(uint64_t key) const { return slots_.shard_of(key); }

  /// Pauses/resumes shard `s`'s write path (chain supervision hook: a
  /// shard whose chain lost a replica defers its puts — with periodic
  /// retry — until resumed; other shards are untouched).
  void set_shard_paused(uint32_t s, bool paused) {
    shards_.at(s).paused = paused;
  }
  bool shard_paused(uint32_t s) const { return shards_.at(s).paused; }

  core::ReplicatedWal& wal() { return wal_.shard(0); }
  core::ReplicatedWal& wal(size_t s) { return wal_.shard(s); }
  core::ShardedWal& sharded_wal() { return wal_; }
  uint64_t checkpoints() const { return checkpoints_; }

 private:
  struct Shard {
    std::map<uint64_t, std::vector<uint8_t>> memtable;
    bool checkpoint_running = false;
    bool paused = false;
  };
  /// Where a replica's sync resumes in one shard's log: the virtual
  /// offset and the LSN expected there (0 = any).
  struct SyncCursor {
    uint64_t pos = 0;
    uint64_t next_lsn = 0;
  };
  struct ReplicaState {
    core::Server* server = nullptr;
    sim::ProcessId pid = 0;
    std::vector<SyncCursor> cursors;  ///< one per shard
    /// Per shard: the replica's table, an image of its DB area (slot
    /// format) with the log applied up to the cursor.
    std::vector<std::vector<uint8_t>> images;
  };

  void put(uint64_t key, std::vector<uint8_t> value, Done done);
  void defer_put(uint64_t key, std::vector<uint8_t> value,
                 std::shared_ptr<Done> done_sp);
  void maybe_checkpoint(uint32_t s);
  void checkpoint_step(uint32_t s);
  void replica_sync_tick(size_t i);
  uint64_t sync_shard(size_t i, uint32_t s);

  core::ReplicationGroup& group_;
  core::Server& client_;
  Config cfg_;
  SlotTable slots_;
  core::ShardedWal wal_;
  core::ShardedReader* sreader_ = nullptr;
  sim::ProcessId client_pid_;
  std::vector<Shard> shards_;
  std::vector<ReplicaState> replica_tables_;
  uint64_t checkpoints_ = 0;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace hyperloop::apps
