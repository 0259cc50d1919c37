#include "apps/kvstore/kvstore.h"

#include <cassert>
#include <cstring>

namespace hyperloop::apps {
namespace {

/// Replica table sync cadence and CPU per log record read.
constexpr sim::Duration kSyncPeriod = sim::msec(1);
constexpr sim::Duration kSyncCpuPerRecord = sim::usec(1);
/// Checkpoint (execute + truncate) when log use crosses this fraction,
/// draining it to half the fraction.
constexpr double kCheckpointThreshold = 0.5;

}  // namespace

KvStore::KvStore(core::ReplicationGroup& group, core::Server& client,
                 std::vector<core::Server*> replica_servers, Config cfg)
    : group_(group), client_(client), cfg_(cfg),
      slots_(cfg.layout, cfg.shards, cfg.value_size),
      wal_(group, cfg.layout, cfg.shards, cfg.wal) {
  client_pid_ = client_.sched().create_process(client_.name() + "-kv");
  shards_.resize(cfg_.shards);
  replica_tables_.resize(replica_servers.size());
  for (size_t i = 0; i < replica_servers.size(); ++i) {
    replica_tables_[i].server = replica_servers[i];
    replica_tables_[i].cursors.resize(cfg_.shards);
    replica_tables_[i].images.assign(
        cfg_.shards, std::vector<uint8_t>(cfg_.layout.db_size()));
    if (cfg_.replicas_sync) {
      replica_tables_[i].pid = replica_servers[i]->sched().create_process(
          replica_servers[i]->name() + "-kv-sync");
      replica_sync_tick(i);
    }
  }
}

KvStore::~KvStore() { *alive_ = false; }

void KvStore::defer_put(uint64_t key, std::vector<uint8_t> value,
                        std::shared_ptr<Done> done_sp) {
  client_.loop().schedule_after(
      sim::usec(200),
      [this, key, value = std::move(value), done_sp,
       alive = alive_]() mutable {
        if (!*alive) return;
        put(key, std::move(value),
            [done_sp](bool ok) { (*done_sp)(ok); });
      });
}

void KvStore::put(uint64_t key, std::vector<uint8_t> value, Done done) {
  assert(value.size() <= cfg_.value_size);
  const uint32_t s = shard_of(key);
  client_.sched().submit(
      client_pid_, cfg_.op_cpu,
      [this, s, key, value = std::move(value),
       done = std::move(done)]() mutable {
        if (shards_[s].paused) {
          // The shard's chain is under repair: defer, touching nothing —
          // the memtable must not run ahead of a WAL that cannot commit.
          defer_put(key, std::move(value),
                    std::make_shared<Done>(std::move(done)));
          return;
        }
        shards_[s].memtable.insert_or_assign(key, value);
        std::vector<core::ReplicatedWal::Entry> entries;
        entries.push_back({slots_.db_offset(key), slots_.encode(key, value)});
        auto done_sp = std::make_shared<Done>(std::move(done));
        const bool ok = wal_.append_to(
            s, entries, [done_sp](uint64_t) { (*done_sp)(true); });
        if (!ok) {
          // Log full: checkpoint this shard and retry shortly.
          maybe_checkpoint(s);
          defer_put(key, std::move(value), done_sp);
          return;
        }
        maybe_checkpoint(s);
      });
}

void KvStore::maybe_checkpoint(uint32_t s) {
  Shard& sh = shards_[s];
  if (sh.checkpoint_running) return;
  if (static_cast<double>(wal_.shard(s).used_bytes()) <
      kCheckpointThreshold * static_cast<double>(cfg_.layout.log_size)) {
    return;
  }
  sh.checkpoint_running = true;
  ++checkpoints_;
  // Drain until half the threshold, off the critical path (appends
  // continue concurrently). Each step drains the whole committed backlog
  // as one execute batch, which applies only the newest write to each
  // key's slot (core/wal.h).
  checkpoint_step(s);
}

void KvStore::checkpoint_step(uint32_t s) {
  const bool below =
      static_cast<double>(wal_.shard(s).used_bytes()) <
      kCheckpointThreshold / 2 * static_cast<double>(cfg_.layout.log_size);
  const auto next = [this, s, alive = alive_] {
    if (*alive) checkpoint_step(s);
  };
  if (below || !wal_.execute_and_advance(s, next)) {
    shards_[s].checkpoint_running = false;
  }
}

void KvStore::insert(uint64_t key, std::vector<uint8_t> value, Done done) {
  put(key, std::move(value), std::move(done));
}

void KvStore::update(uint64_t key, std::vector<uint8_t> value, Done done) {
  put(key, std::move(value), std::move(done));
}

void KvStore::read(uint64_t key, ReadDone done) {
  client_.sched().submit(client_pid_, cfg_.op_cpu,
                         [this, key, done = std::move(done)]() mutable {
                           const auto& table = shards_[shard_of(key)].memtable;
                           const auto it = table.find(key);
                           if (it == table.end()) {
                             done(false, {});
                           } else {
                             done(true, it->second);
                           }
                         });
}

void KvStore::scan(uint64_t key, int count, Done done) {
  const auto cpu =
      cfg_.op_cpu + sim::nsec(300) * static_cast<sim::Duration>(count);
  client_.sched().submit(client_pid_, cpu, [this, key, count,
                                            done = std::move(done)]() mutable {
    if (sreader_ != nullptr) {
      // One scatter batch over the replicated DB image: one extent per
      // shard, one doorbell per chain, rejoined by the sharded reader.
      const core::ReadVec v =
          slots_.scan_extents(key, static_cast<uint64_t>(count));
      if (v.empty()) {
        done(false);
        return;
      }
      sreader_->readv(v, [this, done = std::move(done)](
                             core::ReadView view) mutable {
        done(slots_.occupied(view) > 0);
      });
      return;
    }
    // Scans read the owning shard's table: dense keys stripe round-robin,
    // so one shard holds `count` ascending keys from `key` on. The scan
    // succeeds when it finds at least one.
    const auto& table = shards_[shard_of(key)].memtable;
    done(count > 0 && table.lower_bound(key) != table.end());
  });
}

void KvStore::read_modify_write(uint64_t key, std::vector<uint8_t> value,
                                Done done) {
  read(key, [this, key, value = std::move(value), done = std::move(done)](
                bool ok, std::vector<uint8_t>) mutable {
    if (!ok) {
      done(false);
      return;
    }
    put(key, std::move(value), std::move(done));
  });
}

bool KvStore::replica_read(size_t replica, uint64_t key,
                           std::vector<uint8_t>* value) const {
  const std::vector<uint8_t>& image =
      replica_tables_.at(replica).images[shard_of(key)];
  const uint64_t off = slots_.db_offset(key);
  if (off + slots_.stride() > image.size()) return false;
  const uint8_t* slot = image.data() + off;
  uint64_t stored = 0;
  std::memcpy(&stored, slot, 8);
  const uint32_t len = slots_.value_len(slot);
  if (len == 0 || stored != key) return false;
  if (value != nullptr) {
    value->assign(slot + SlotTable::kHeader, slot + SlotTable::kHeader + len);
  }
  return true;
}

size_t KvStore::replica_record_count(size_t replica) const {
  size_t n = 0;
  for (uint32_t s = 0; s < cfg_.shards; ++s) {
    const std::vector<uint8_t>& image = replica_tables_.at(replica).images[s];
    const uint64_t base = slots_.layout(s).db_base();
    slots_.for_each(
        s,
        [&](uint64_t off, void* dst, uint32_t len) {
          std::memcpy(dst, image.data() + (off - base), len);
        },
        [&n](uint64_t, const uint8_t*, uint32_t) { ++n; });
  }
  return n;
}

void KvStore::replica_sync_tick(size_t i) {
  ReplicaState& r = replica_tables_[i];
  r.server->loop().schedule_after(kSyncPeriod, [this, i, alive = alive_] {
    if (!*alive) return;
    uint64_t records = 0;
    for (uint32_t s = 0; s < cfg_.shards; ++s) records += sync_shard(i, s);
    if (records > 0) {
      // Charge the off-path CPU the sync actually used.
      ReplicaState& rs = replica_tables_[i];
      rs.server->sched().submit(
          rs.pid, kSyncCpuPerRecord * static_cast<sim::Duration>(records));
    }
    replica_sync_tick(i);
  });
}

uint64_t KvStore::sync_shard(size_t i, uint32_t s) {
  // Applies replica i's own copy of shard s's log, from the cursor to its
  // durable tail, to the replica's table; returns the records read.
  SyncCursor& c = replica_tables_[i].cursors[s];
  std::vector<uint8_t>& image = replica_tables_[i].images[s];
  const core::RegionLayout lay = slots_.layout(s);
  const auto load = [this, i](uint64_t off, void* dst, uint32_t len) {
    group_.replica_load(i, off, dst, len);
  };
  uint64_t head = 0;
  load(lay.head_ptr_offset(), &head, 8);
  const uint64_t tail = core::ReplicatedWal::load_tail(lay, load);
  const auto apply = [&](uint64_t db_offset, uint64_t data, uint32_t len) {
    if (db_offset + len <= image.size()) {
      load(data, image.data() + db_offset, len);
    }
  };
  uint64_t records = 0;
  if (head <= c.pos) {
    const auto end = core::ReplicatedWal::walk(lay, load, c.pos, tail,
                                               &c.next_lsn, apply);
    records = end.records;
    c.pos = end.pos;
  }
  if (head > c.pos || c.pos < tail) {
    // The client reuses log space once its records are applied on every
    // replica, which can be before this sync read them: the replica's
    // head passed the cursor, or the bytes at the cursor are no longer
    // the record it expects. The records in between are in the DB area
    // now, so reload the image from there, then apply the log again
    // from the head.
    load(lay.db_base(), image.data(), static_cast<uint32_t>(image.size()));
    c.next_lsn = 0;
    const auto end = core::ReplicatedWal::walk(lay, load, head, tail,
                                               &c.next_lsn, apply);
    records += end.records;
    c.pos = end.pos;
  }
  return records;
}

void KvStore::recover() {
  const auto load = [this](uint64_t off, void* dst, uint32_t len) {
    group_.client_load(off, dst, len);
  };
  for (uint32_t s = 0; s < cfg_.shards; ++s) {
    Shard& sh = shards_[s];
    sh.memtable.clear();
    // 1) Replay the committed log into the DB area (idempotent redo).
    core::ReplicatedWal::replay(
        slots_.layout(s), load,
        [this](uint64_t off, const void* src, uint32_t len) {
          group_.client_store(off, src, len);
        });
    // 2) Rebuild the table from this shard's DB-area slots.
    slots_.for_each(s, load,
                    [&sh](uint64_t key, const uint8_t* v, uint32_t len) {
                      sh.memtable.insert_or_assign(
                          key, std::vector<uint8_t>(v, v + len));
                    });
    wal_.shard(s).reload_pointers();
  }
}

void KvStore::bulk_load(uint64_t n) {
  // Control-path load: fill client memtables + region image, replicate
  // each shard's DB span in large chunks, and seed the replica tables
  // with the client's DB image directly.
  slots_.bulk_load(group_, n, [this](uint64_t k, std::vector<uint8_t> v) {
    shards_[shard_of(k)].memtable.insert_or_assign(k, std::move(v));
  });
  for (ReplicaState& r : replica_tables_) {
    for (uint32_t s = 0; s < cfg_.shards; ++s) {
      group_.client_load(slots_.layout(s).db_base(), r.images[s].data(),
                         static_cast<uint32_t>(r.images[s].size()));
    }
  }
}

}  // namespace hyperloop::apps
