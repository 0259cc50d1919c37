#include "core/wal.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hyperloop::core {
namespace {

// The virtual offset behind the header at `v`, on a walk that must meet
// `tail`. A zero length would never advance the walk and one that runs
// past the tail would never meet it, so either aborts, naming the header.
uint64_t step_over(uint64_t v, uint32_t total_len, uint64_t tail) {
  if (total_len == 0 || total_len > tail - v) {
    std::fprintf(stderr,
                 "ReplicatedWal: corrupt log header at virtual offset %llu: "
                 "total_len=%u does not step to the durable tail %llu\n",
                 static_cast<unsigned long long>(v), total_len,
                 static_cast<unsigned long long>(tail));
    std::abort();
  }
  return v + total_len;
}

// Slicing-by-8 tables for the reflected CRC-32 polynomial: kCrc[0] is
// the classic byte table, kCrc[k][b] is byte b's contribution k bytes
// further back, so one 8-byte step folds with eight lookups.
struct CrcTables {
  uint32_t t[8][256];
};

constexpr CrcTables make_crc_tables() {
  CrcTables tab{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t c = b;
    for (int i = 0; i < 8; ++i) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    tab.t[0][b] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      const uint32_t prev = tab.t[k - 1][b];
      tab.t[k][b] = (prev >> 8) ^ tab.t[0][prev & 0xFFu];
    }
  }
  return tab;
}

constexpr CrcTables kCrc = make_crc_tables();

}  // namespace

ReplicatedWal::ReplicatedWal(ReplicationGroup& group, RegionLayout layout)
    : ReplicatedWal(group, layout, Options{}) {}

ReplicatedWal::ReplicatedWal(ReplicationGroup& group, RegionLayout layout,
                             Options opts)
    : group_(group), layout_(layout), opts_(opts) {
  assert(layout_.valid());
  assert(layout_.base + layout_.region_size <= group.region_size());
  assert(opts_.staged_capacity >= 1);
}

uint32_t ReplicatedWal::crc32_update(uint32_t crc, const void* data,
                                     size_t len) {
  // The word loads below read the first byte into the low bits.
  static_assert(std::endian::native == std::endian::little);
  const auto* p = static_cast<const uint8_t*>(data);
  const auto& t = kCrc.t;
  for (; len >= 8; p += 8, len -= 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, p, 4);  // memcpy: any alignment
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
  return crc;
}

uint32_t ReplicatedWal::stage_record(std::span<const Entry> entries,
                                     uint64_t lsn, uint64_t voff) {
  static constexpr uint8_t kZeroPad[8] = {};

  // Serialize body pieces straight into the ring while folding them into
  // the checksum; the header (which carries the final crc) lands last.
  uint32_t crc = 0xFFFFFFFFu;
  uint64_t p = voff + sizeof(RecordHeader);
  for (const Entry& e : entries) {
    EntryHeader eh;
    eh.db_offset = e.db_offset;
    eh.len = static_cast<uint32_t>(e.data.size());
    group_.client_store(log_phys(p), &eh, sizeof(eh));
    crc = crc32_update(crc, &eh, sizeof(eh));
    p += sizeof(eh);
    if (!e.data.empty()) {
      group_.client_store(log_phys(p), e.data.data(),
                          static_cast<uint32_t>(e.data.size()));
      crc = crc32_update(crc, e.data.data(), e.data.size());
      p += e.data.size();
    }
    const uint32_t pad =
        static_cast<uint32_t>((8 - (e.data.size() & 7)) & 7);
    if (pad > 0) {
      group_.client_store(log_phys(p), kZeroPad, pad);
      crc = crc32_update(crc, kZeroPad, pad);
      p += pad;
    }
  }

  RecordHeader hdr;
  hdr.magic = kRecordMagic;
  hdr.num_entries = static_cast<uint32_t>(entries.size());
  hdr.lsn = lsn;
  hdr.total_len = static_cast<uint32_t>(p - voff);
  hdr.crc = ~crc;
  group_.client_store(log_phys(voff), &hdr, sizeof(hdr));
  return hdr.total_len;
}

bool ReplicatedWal::append(std::span<const Entry> entries, AppendDone done) {
  uint64_t rec_len = sizeof(RecordHeader);
  for (const Entry& e : entries) {
    rec_len += sizeof(EntryHeader) + ((e.data.size() + 7) & ~size_t{7});
  }
  assert(rec_len <= layout_.log_size / 2 && "record too large for log");

  // Never straddle the ring wrap: pad with a wrap marker if needed.
  const uint64_t room_to_wrap = layout_.log_size - (tail_ % layout_.log_size);
  uint64_t wrap_pad = 0;
  if (rec_len > room_to_wrap) wrap_pad = room_to_wrap;

  // Backpressure: a full log and a full group-commit window look the same
  // to callers — append fails and they must drain (execute / wait) first.
  if (rec_len + wrap_pad > free_bytes() ||
      staged_.size() >= opts_.staged_capacity) {
    ++stats_.append_failures;
    return false;
  }
  const uint64_t lsn = next_lsn_++;

  if (wrap_pad > 0) {
    // Stage the marker header locally; it replicates as an extent of the
    // record's batch (the rest of the pad is junk readers skip via
    // total_len).
    RecordHeader wrap;
    wrap.magic = kWrapMagic;
    wrap.total_len = static_cast<uint32_t>(wrap_pad);
    group_.client_store(log_phys(tail_), &wrap, sizeof(wrap));
    tail_ += wrap_pad;
  }

  const uint64_t rec_voff = tail_;
  const uint32_t staged = stage_record(entries, lsn, rec_voff);
  assert(staged == rec_len);
  (void)staged;
  tail_ += rec_len;
  ++stats_.records_appended;
  stats_.bytes_appended += rec_len;

  PendingRecord pr;
  pr.rec_voff = rec_voff;
  pr.rec_len = static_cast<uint32_t>(rec_len);
  pr.wrap_len = static_cast<uint32_t>(wrap_pad);
  pr.lsn = lsn;
  pr.start = opts_.loop ? opts_.loop->now() : 0;
  pr.done = std::move(done);
  staged_.push_back(std::move(pr));

  maybe_flush();
  return true;
}

void ReplicatedWal::maybe_flush() {
  // Issue rule: at most two batches in flight, and a second one only
  // while the first carries a single record.
  //
  // Two, one per tail slot, for correctness. The tail extent is gathered
  // when each hop's NIC executes its WRITE, not at the call, so a client
  // store of a newer value into a slot could be picked up by the
  // still-traversing WRITEs of the batch that carries the slot's older
  // value: the tail would become durable ahead of the records it covers,
  // and a replay or replica-side walk would meet a gap. Batch b writes
  // slot b % 2, which only batch b + 2 rewrites, and that one goes out
  // after b has completed.
  //
  // One record, for batching. Lone appends (one transaction at a time)
  // stop waiting for each other's batches; a burst keeps sharing one
  // traversal instead of splitting into more, smaller ones.
  while (!staged_.empty()) {
    const uint64_t in_flight = batches_issued_ - batches_done_;
    if (in_flight == 2) return;
    if (in_flight == 1 && inflight_count_[batches_done_ % 2] != 1) return;

    const uint64_t batch = batches_issued_++;
    const uint32_t slot = static_cast<uint32_t>(batch % 2);
    PendingRecord* rows = inflight_[slot];
    uint32_t& count = inflight_count_[slot];
    assert(count == 0);
    ExtentVec ext;
    uint64_t batch_tail = 0;
    while (!staged_.empty() && count < ExtentVec::kCapacity) {
      PendingRecord& pr = staged_.front();
      const size_t needed = pr.wrap_len > 0 ? 2u : 1u;
      // Reserve the last extent for the tail.
      if (ext.size() + needed > ExtentVec::kCapacity - 1) break;
      if (pr.wrap_len > 0) {
        ext.push_back({log_phys(pr.rec_voff - pr.wrap_len),
                       static_cast<uint32_t>(sizeof(RecordHeader))});
      }
      ext.push_back({log_phys(pr.rec_voff), pr.rec_len});
      batch_tail = pr.rec_voff + pr.rec_len;
      rows[count++] = std::move(pr);
      staged_.pop_front();
    }
    assert(count > 0 && !ext.empty());

    // The tail rides as the *last* extent: extents land in list order,
    // and each hop's gFLUSH persists them atomically, so the durable tail
    // never runs ahead of the record bodies it commits.
    const uint64_t tail_off = layout_.tail_slot_offset(slot);
    group_.client_store(tail_off, &batch_tail, 8);
    ext.push_back({tail_off, 8});

    ++stats_.gwritev_batches;
    records_per_gwrite_.record(count);
    group_.gwritev(ext, /*flush=*/true,
                   [this, batch] { on_batch_done(batch); });
  }
}

void ReplicatedWal::on_batch_done(uint64_t batch) {
  assert(batch == batches_done_ && "commit batches complete in issue order");
  const sim::Time now = opts_.loop ? opts_.loop->now() : 0;
  const uint32_t slot = static_cast<uint32_t>(batch % 2);
  PendingRecord* rows = inflight_[slot];
  const uint32_t n = inflight_count_[slot];
  assert(n > 0);
  // Advance the durable frontier before firing completions: a done
  // callback typically calls execute_and_advance, which may drain every
  // record this batch just committed.
  durable_tail_ = rows[n - 1].rec_voff + rows[n - 1].rec_len;
  // Fire completions while the batch still counts as in flight: a done
  // callback may append (and thus re-enter maybe_flush), which must not
  // reuse this row while we iterate it.
  for (uint32_t i = 0; i < n; ++i) {
    PendingRecord pr = std::move(rows[i]);
    if (opts_.loop) commit_latency_.record(now - pr.start);
    if (pr.done) pr.done(pr.lsn);
  }
  inflight_count_[slot] = 0;
  ++batches_done_;
  maybe_flush();
}

void ReplicatedWal::write_pointer(uint64_t ctrl_offset, uint64_t value,
                                  sim::SmallFn<void(), kDoneCap> done) {
  group_.client_store(layout_.control_base() + ctrl_offset, &value, 8);
  group_.gwrite(layout_.control_base() + ctrl_offset, 8, /*flush=*/true,
                std::move(done));
}

void ReplicatedWal::finish_exec(uint32_t idx) {
  exec_ops_[idx].applied = true;
  // Retire only the applied prefix of batches: one that finishes early
  // (no entries, or its gMEMCPYs rode a faster chain) waits for every
  // batch issued before it, so the durable head never runs ahead of an
  // unapplied record.
  while (!exec_order_.empty() && exec_ops_[exec_order_.front()].applied) {
    const uint32_t i = exec_order_.front();
    exec_order_.pop_front();
    ExecOp& op = exec_ops_[i];
    stats_.records_executed += op.records;
    const uint64_t new_head = op.end;
    applied_head_ = new_head;
    Done done = std::move(op.done);
    op.live = false;
    op.applied = false;
    exec_ops_.release(i);
    write_pointer(RegionLayout::kHeadOffset, new_head,
                  [d = std::move(done)]() mutable {
                    if (d) d();
                  });
  }
}

bool ReplicatedWal::execute_and_advance(Done done) {
  // Every record in [head_, durable_tail_) is committed AND replicated
  // (its batch acked), so that whole backlog drains as ONE batch. One
  // walk collects its entries, above any an outer call of this function
  // is still issuing.
  const size_t base = exec_entries_.size();
  exec_by_offset_.clear();
  uint64_t v = head_;
  uint32_t num_records = 0;
  while (v != durable_tail_) {
    RecordHeader hdr;
    group_.client_load(log_phys(v), &hdr, sizeof(hdr));
    if (hdr.magic != kWrapMagic) {
      assert(hdr.magic == kRecordMagic && "corrupt log record");
      ++num_records;
      uint64_t p = v + sizeof(RecordHeader);
      for (uint32_t i = 0; i < hdr.num_entries; ++i) {
        EntryHeader eh;
        group_.client_load(log_phys(p), &eh, sizeof(eh));
        const uint64_t data_voff = p + sizeof(EntryHeader);
        exec_by_offset_.push_back(
            static_cast<uint32_t>(exec_entries_.size()));
        exec_entries_.push_back({eh.db_offset, data_voff, eh.len});
        p = data_voff + ((eh.len + 7) & ~uint64_t{7});
      }
    }
    v = step_over(v, hdr.total_len, durable_tail_);
  }

  // Advance the in-memory head eagerly so a concurrent caller sees the
  // backlog as claimed. FIFO gMEMCPY/gWRITE acks guarantee the durable
  // head pointer writes still land in batch order. The space stays used
  // until the batch retires (finish_exec): an append that
  // wrapped onto it rides the gWRITEV ring, which nothing orders against
  // the gMEMCPYs still reading it.
  head_ = v;
  if (num_records == 0) {
    // Only wrap markers: with no batch in flight, nothing is left to apply
    // before them.
    if (exec_order_.empty()) applied_head_ = head_;
    return false;
  }

  // Absorption (wal.h): sort the entries by (db_offset, log order) and
  // read each offset's run newest first; an entry no longer than the
  // longest one after it is overwritten before the head advance.
  const size_t end = exec_entries_.size();
  std::sort(exec_by_offset_.begin(), exec_by_offset_.end(),
            [this](uint32_t a, uint32_t b) {
              const uint64_t oa = exec_entries_[a].db_offset;
              const uint64_t ob = exec_entries_[b].db_offset;
              return oa != ob ? oa < ob : a < b;
            });
  uint32_t absorbed = 0;
  uint32_t longest_later = 0;
  for (size_t k = exec_by_offset_.size(); k-- > 0;) {
    ExecEntry& e = exec_entries_[exec_by_offset_[k]];
    const bool newest =
        k + 1 == exec_by_offset_.size() ||
        exec_entries_[exec_by_offset_[k + 1]].db_offset != e.db_offset;
    if (newest || e.len > longest_later) {
      longest_later = e.len;
    } else {
      e.absorbed = true;
      ++absorbed;
    }
  }
  stats_.entries_absorbed += absorbed;

  // Claim a pooled op slot; each issued gMEMCPY decrements it, and the
  // last ack marks the batch applied (finish_exec).
  const uint32_t idx = exec_ops_.claim();
  ExecOp& op = exec_ops_[idx];
  assert(!op.live);
  op.end = v;
  op.remaining = static_cast<uint32_t>(end - base) - absorbed;
  op.records = num_records;
  op.live = true;
  op.done = std::move(done);
  exec_order_.push_back(idx);
  ++stats_.exec_batches;

  if (end == base) {
    finish_exec(idx);
    return true;
  }

  // The gMEMCPYs ride unflushed, in log order — the chain applies them
  // in FIFO order on every replica, so the single gFLUSH carried by the
  // trailing head-pointer advance (finish_exec -> write_pointer)
  // persists the whole batch at once instead of paying one flush per
  // record. Entries are read by index and copied out: a completion that
  // re-enters this function may grow the scratch.
  for (size_t i = base; i < end; ++i) {
    const ExecEntry e = exec_entries_[i];
    if (e.absorbed) continue;
    group_.gmemcpy(log_phys(e.data_voff), layout_.db_base() + e.db_offset,
                   e.len, /*flush=*/false, [this, idx] {
                     if (--exec_ops_[idx].remaining == 0) finish_exec(idx);
                   });
  }
  exec_entries_.resize(base);
  return true;
}

void ReplicatedWal::reload_pointers() {
  group_.client_load(layout_.head_ptr_offset(), &head_, 8);
  tail_ = load_tail(layout_, [this](uint64_t off, void* dst, uint32_t len) {
    group_.client_load(off, dst, len);
  });
  applied_head_ = head_;
  // The recovered tail came from the durable control region, so every
  // record below it is committed and replicated by definition.
  durable_tail_ = tail_;
  // Number new appends after the last record in [head, tail), so LSNs
  // keep rising in log order.
  for (uint64_t v = head_; v != tail_;) {
    RecordHeader hdr;
    group_.client_load(log_phys(v), &hdr, sizeof(hdr));
    if (hdr.magic == kRecordMagic) {
      next_lsn_ = hdr.lsn + 1;
    } else if (hdr.magic != kWrapMagic) {
      break;
    }
    v = step_over(v, hdr.total_len, tail_);
  }
}

ShardedWal::ShardedWal(ReplicationGroup& group, RegionLayout slice,
                       uint32_t shards, ReplicatedWal::Options opts) {
  assert(shards >= 1);
  assert(slice.base == 0 && "pass the shard-0 slice; bases are derived");
  assert(uint64_t{shards} * slice.region_size <= group.region_size());
  wals_.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    wals_.push_back(
        std::make_unique<ReplicatedWal>(group, slice.shard_slice(s), opts));
  }
}

ReplicatedWal::Stats ShardedWal::totals() const {
  ReplicatedWal::Stats t;
  for (const auto& w : wals_) {
    const ReplicatedWal::Stats& s = w->stats();
    t.records_appended += s.records_appended;
    t.records_executed += s.records_executed;
    t.bytes_appended += s.bytes_appended;
    t.append_failures += s.append_failures;
    t.gwritev_batches += s.gwritev_batches;
    t.exec_batches += s.exec_batches;
    t.entries_absorbed += s.entries_absorbed;
  }
  return t;
}

}  // namespace hyperloop::core
