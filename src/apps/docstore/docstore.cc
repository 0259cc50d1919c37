#include "apps/docstore/docstore.h"

#include <cstring>

namespace hyperloop::apps {

DocStore::DocStore(core::ReplicationGroup& group, core::Server& client,
                   Config cfg)
    : group_(group), client_(client), cfg_(cfg),
      slots_(cfg.layout, 1, cfg.value_size),
      wal_(group, cfg.layout, cfg.wal),
      locks_(group, cfg.layout),
      txns_(group, wal_, locks_, client.loop()) {
  client_pid_ = client_.sched().create_process(client_.name() + "-doc-fe");
}

void DocStore::write_doc(uint64_t key, std::vector<uint8_t> value,
                         Done done) {
  // Front-end CPU first, then the offloaded transaction.
  client_.sched().submit(
      client_pid_, cfg_.op_cpu,
      [this, key, value = std::move(value), done = std::move(done)]() mutable {
        std::vector<core::ReplicatedWal::Entry> writes;
        writes.push_back({slots_.db_offset(key), slots_.encode(key, value)});
        txns_.execute(std::move(writes), {stripe(key)},
                      [done = std::move(done)](bool ok) mutable { done(ok); });
      });
}

void DocStore::insert(uint64_t key, std::vector<uint8_t> value, Done done) {
  write_doc(key, std::move(value), std::move(done));
}

void DocStore::update(uint64_t key, std::vector<uint8_t> value, Done done) {
  write_doc(key, std::move(value), std::move(done));
}

void DocStore::finish_read(uint64_t key, size_t replica, ReadDone done) {
  if (reader_ != nullptr) {
    reader_->read_from(
        replica, slots_.offset(key), static_cast<uint32_t>(slots_.stride()),
        [this, done = std::move(done)](core::ReadView doc) mutable {
          const uint32_t len = slots_.value_len(doc.data());
          if (len == 0) {
            done(false, {});
            return;
          }
          const uint8_t* body = doc.data() + SlotTable::kHeader;
          done(true, std::vector<uint8_t>(body, body + len));
        });
    return;
  }
  uint8_t hdr[SlotTable::kHeader];
  group_.client_load(slots_.offset(key), hdr, sizeof(hdr));
  const uint32_t len = slots_.value_len(hdr);
  if (len == 0) {
    done(false, {});
    return;
  }
  std::vector<uint8_t> value(len);
  group_.client_load(slots_.offset(key) + SlotTable::kHeader, value.data(),
                     len);
  done(true, std::move(value));
}

void DocStore::read(uint64_t key, ReadDone done) {
  client_.sched().submit(
      client_pid_, cfg_.op_cpu,
      [this, key, done = std::move(done)]() mutable {
        // Pick the replica first: the read lock must land on the same
        // replica the one-sided read will observe.
        const size_t replica =
            reader_ != nullptr ? reader_->next_replica() : 0;
        if (!cfg_.use_read_locks) {
          finish_read(key, replica, std::move(done));
          return;
        }
        locks_.rd_lock(
            stripe(key), replica,
            [this, key, replica, done = std::move(done)](bool ok) mutable {
              if (!ok) {
                done(false, {});
                return;
              }
              finish_read(
                  key, replica,
                  [this, key, replica, done = std::move(done)](
                      bool ok2, std::vector<uint8_t> v) mutable {
                    // The value is fixed once read under the lock, so
                    // report now. Unlock first: every later lock op of
                    // this client then executes behind the decrement
                    // (group.h), so it never meets its own read count.
                    locks_.rd_unlock(stripe(key), replica, {});
                    done(ok2, std::move(v));
                  });
            });
      });
}

void DocStore::scan(uint64_t key, int count, Done done) {
  // Scans read `count` consecutive documents from the local copy; charge
  // per-document CPU (cursor iteration + marshalling). Lock-free snapshot
  // read.
  const auto cpu =
      cfg_.op_cpu + sim::nsec(500) * static_cast<sim::Duration>(count);
  client_.sched().submit(
      client_pid_, cpu, [this, key, count, done = std::move(done)]() mutable {
        int found = 0;
        uint8_t hdr[SlotTable::kHeader];
        for (const core::ReadExtent& e :
             slots_.scan_extents(key, static_cast<uint64_t>(count))) {
          for (uint64_t off = e.offset; off < e.offset + e.len;
               off += slots_.stride()) {
            group_.client_load(off, hdr, sizeof(hdr));
            if (slots_.value_len(hdr) != 0) ++found;
          }
        }
        done(found > 0);
      });
}

void DocStore::read_modify_write(uint64_t key, std::vector<uint8_t> value,
                                 Done done) {
  read(key, [this, key, value = std::move(value), done = std::move(done)](
                bool ok, std::vector<uint8_t>) mutable {
    if (!ok) {
      done(false);
      return;
    }
    write_doc(key, std::move(value), std::move(done));
  });
}

void DocStore::bulk_load(uint64_t n) {
  slots_.bulk_load(group_, n, [](uint64_t, std::vector<uint8_t>) {});
}

}  // namespace hyperloop::apps
