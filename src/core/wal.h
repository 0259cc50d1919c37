// Replicated write-ahead log (§5, "Log Replication" / "Log Processing").
//
// Records are redo logs: lists of (db_offset, bytes) modifications. The
// client appends a record with Append(): the record body and a tail
// pointer are replicated together as one gWRITEV+gFLUSH — a single chain
// traversal — with the tail as the *last* extent, so the tail is the
// commit point: a record is committed iff the durable tail covers it.
// The control block holds two tail slots (region_layout.h); commit batch
// b writes slot b % 2, and the durable tail is the larger of the two
// (load_tail). ExecuteAndAdvance() drains every committed-but-unprocessed
// record in one batch: an unflushed gMEMCPY per live entry applies them
// on every replica and a single flushed head advance (truncation)
// persists the lot — the chain's FIFO order guarantees the trailing
// gFLUSH lands after every apply. Replay() performs crash recovery: it
// re-applies every committed-but-unprocessed record, which is idempotent
// because records are pure redo.
//
// Absorption: an entry is live unless a later entry of the same execute
// batch writes the same db_offset with at least as many bytes. Such an
// entry is absorbed: no gMEMCPY copies it, since the later one overwrites
// every byte it would write before the batch's head advance makes either
// final. The batch's final DB image is the in-order image, and that is
// all the head advance's gFLUSH persists. A crash before the head advance
// replays every record of the batch in log order, absorbed ones too. A
// writer that holds a lock never meets itself in one batch: its record
// is claimed before its lock is released, so the next writer's record
// for that offset lands in a later batch. Lock-serialized stores
// (DocStore, TransactionManager, 2PC application writes) therefore
// absorb nothing; KvStore's unlocked updates of a hot key do.
//
// Head advances go out in batch order: a batch's goes out once its
// gMEMCPYs and those of every batch issued before it have acked on every
// replica. Truncation is garbage collection and nobody needs to wait for
// it: until the head advance lands, an applied record stays inside the
// durable [head, tail) range, and a crash replays it. A transaction
// releases its locks behind its record's apply on the gMEMCPY ring
// instead of waiting for any ACK (core/txn.h).
//
// Group commit: appends that cannot go out at once are staged into a
// bounded ring and flushed together — several records plus one shared
// tail write per traversal — amortizing the fixed per-traversal costs
// (per-hop WQEs, descriptor-patch SEND, doorbell) exactly where HyperLoop
// pays them. At most two batches are in flight, one per tail slot, and a
// second one goes out only while the first carries a single record (see
// maybe_flush() for both rules). An append that finds only a lone
// record in flight goes out at once instead of waiting for that batch,
// while a burst still shares traversals. Batches complete in issue
// order, as the ordering contract of group.h implies (asserted).
//
// Log space is a ring addressed by monotonically increasing virtual
// offsets (physical = v % log_size); records never straddle the wrap — a
// wrap-marker record pads the tail of the ring instead.
//
// The append/execute datapath is allocation-free in steady state: records
// are serialized piecewise straight into the client's staging region (no
// temporary buffer), staged/in-flight batch state lives in rings and
// fixed arrays, an execute batch's entries are collected into a reused
// scratch, and in-flight executions live in a pooled slot table indexed
// by small integers. Completion callbacks are sim::SmallFn, sized
// so every continuation in this file stays within the inline capacity.
#pragma once

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "core/group.h"
#include "core/region_layout.h"
#include "sim/event_loop.h"
#include "sim/ring.h"
#include "sim/slot_pool.h"
#include "sim/small_fn.h"
#include "stats/histogram.h"

namespace hyperloop::core {

class ReplicatedWal {
 public:
  /// Inline capacity for WAL completion callbacks. 64 bytes covers the
  /// transaction layer's continuations (a shared_ptr to op state plus a
  /// few words); anything bigger falls back to one allocation, which the
  /// alloc-gate test would catch on the steady-state path.
  static constexpr size_t kCallbackCap = 64;
  using AppendDone = sim::SmallFn<void(uint64_t lsn), kCallbackCap>;
  using Done = sim::SmallFn<void(), kCallbackCap>;

  struct Entry {
    uint64_t db_offset = 0;  ///< destination, relative to the DB area
    std::vector<uint8_t> data;
  };

  struct Stats {
    uint64_t records_appended = 0;
    uint64_t records_executed = 0;
    uint64_t bytes_appended = 0;
    uint64_t append_failures = 0;   ///< log-full / window-full backpressure
    uint64_t gwritev_batches = 0;   ///< chain traversals issued by appends
    uint64_t exec_batches = 0;      ///< batched execute_and_advance drains
    /// Execute entries a later entry of their batch overwrote, so no
    /// gMEMCPY applied them (see the absorption rule above).
    uint64_t entries_absorbed = 0;
  };

  /// Group-commit tuning. The defaults batch transparently.
  struct Options {
    /// Staged-record window: appends that cannot go out at once queue
    /// here; when it is full, append() fails (append_failures) just like
    /// a full log. It sets only that backpressure window, not how staged
    /// records are batched. Must be >= 1.
    uint32_t staged_capacity = 64;
    /// Clock for the commit-latency histogram; nullptr disables timing.
    sim::EventLoop* loop = nullptr;
  };

  ReplicatedWal(ReplicationGroup& group, RegionLayout layout);
  ReplicatedWal(ReplicationGroup& group, RegionLayout layout, Options opts);

  /// Appends a redo record. Returns false (and does nothing) if the log
  /// or the group-commit window lacks space — the caller must
  /// ExecuteAndAdvance (truncate) first. `done` fires with the record's
  /// LSN once the record *and* the tail pointer are durably replicated.
  /// Span-style view: vectors, arrays and braced lists share one
  /// allocation-free signature.
  bool append(std::span<const Entry> entries, AppendDone done);
  bool append(std::initializer_list<Entry> entries, AppendDone done) {
    return append(std::span<const Entry>(entries.begin(), entries.size()),
                  std::move(done));
  }

  /// Drains the whole committed backlog — [head, durable tail), every
  /// record whose commit batch has acked — as one batch: an unflushed
  /// gMEMCPY per live entry applies the records on every replica,
  /// then a single flushed head advance (log truncation) persists the
  /// batch — one trailing gFLUSH instead of one per record, mirroring how
  /// append() group-commits the log write. An entry that a later entry
  /// of the batch overwrites — same db_offset, at least as long — is
  /// absorbed (Stats::entries_absorbed) and gets no gMEMCPY: the batch's
  /// DB image is the in-order one all the same, the head advance goes
  /// out only after every issued copy has acked, and until it lands a
  /// crash replays every record of the batch. The gMEMCPYs are issued
  /// before the call returns; the head advance goes out once this batch
  /// and every earlier one have applied. Returns false if there is no
  /// unprocessed record (a concurrent caller may have claimed the
  /// backlog). `done` fires when the head advance is durable.
  bool execute_and_advance(Done done);

  /// Virtual head/tail offsets (head == tail means empty).
  uint64_t head() const { return head_; }
  uint64_t tail() const { return tail_; }
  /// Log bytes not yet reusable: counted from the applied position, so a
  /// record an execute batch has claimed stays used until the batch's
  /// gMEMCPYs have read it.
  uint64_t used_bytes() const { return tail_ - applied_head_; }
  uint64_t free_bytes() const { return layout_.log_size - used_bytes(); }
  bool empty() const { return head_ == tail_; }
  const Stats& stats() const { return stats_; }
  const RegionLayout& layout() const { return layout_; }

  /// Records per issued gWRITEV batch (group-commit amortization ratio).
  const stats::Histogram& records_per_gwrite() const {
    return records_per_gwrite_;
  }
  /// append() call to durable-commit latency (needs Options::loop).
  const stats::Histogram& commit_latency() const { return commit_latency_; }
  /// Appends staged but not yet issued (waiting for an in-flight batch).
  size_t staged_records() const { return staged_.size(); }

  /// The durable tail of a raw region image read through
  /// `load(off, dst, len)`: the larger of the two tail slots. Every
  /// reader of a replicated tail goes through this.
  template <typename LoadFn>
  static uint64_t load_tail(const RegionLayout& layout, LoadFn&& load) {
    uint64_t slots[2] = {};
    load(layout.tail_slot_offset(0), &slots[0], 8);
    load(layout.tail_slot_offset(1), &slots[1], 8);
    return slots[0] > slots[1] ? slots[0] : slots[1];
  }

  /// Where walk() stopped and how many records it passed.
  struct WalkEnd {
    uint64_t pos = 0;      ///< virtual offset of the first record not walked
    uint64_t records = 0;  ///< records walked (wrap markers not counted)
  };

  /// Walks the records in virtual log range [from, to) of a raw region
  /// image read through `load(off, dst, len)`, calling
  /// `on_entry(db_offset, data_off, len)` for every entry, where data_off
  /// is the region offset of the entry's bytes. Stops before the first
  /// record that fails a check: its magic, its length against `to`, its
  /// checksum, or its LSN against *next_lsn (0 accepts any). A record's
  /// entries are visited only once its checksum holds, and *next_lsn
  /// moves past every record walked. Records are consecutive LSNs in log
  /// order, so a reader that keeps `next_lsn` between walks notices when
  /// the log space it resumes at was reused. No allocation.
  template <typename LoadFn, typename EntryFn>
  static WalkEnd walk(const RegionLayout& layout, LoadFn&& load,
                      uint64_t from, uint64_t to, uint64_t* next_lsn,
                      EntryFn&& on_entry);

  /// Crash recovery over a raw region image: re-applies every record in
  /// [head, tail) to the DB area and returns the number applied. Works on
  /// any replica's (or the client's) region bytes via the provided
  /// load/store callables, `load(off, dst, len)` / `store(off, src, len)`.
  /// Corrupt (checksum-failing) records stop the replay — they can only
  /// be a torn tail write, which the durable tail pointer already
  /// excludes in normal operation. Cold path: may allocate.
  template <typename LoadFn, typename StoreFn>
  static uint64_t replay(const RegionLayout& layout, LoadFn&& load,
                         StoreFn&& store);

  /// Recovers this WAL's in-memory pointers from the client region
  /// (used after a coordinator restart in tests). LSNs resume after the
  /// last record in the log.
  void reload_pointers();

  /// CRC-32 (reflected polynomial 0xEDB88320) folded over `len` more
  /// bytes; start from 0xFFFFFFFF and invert the result. Public so the
  /// checksum can be tested against a reference.
  static uint32_t crc32_update(uint32_t crc, const void* data, size_t len);

 private:
  static constexpr uint32_t kRecordMagic = 0x57414C21;  // "WAL!"
  static constexpr uint32_t kWrapMagic = 0x57524150;    // "WRAP"

  struct RecordHeader {
    uint32_t magic = 0;
    uint32_t num_entries = 0;
    uint64_t lsn = 0;
    uint32_t total_len = 0;  ///< whole record, header included
    uint32_t crc = 0;        ///< over the serialized entries
  };
  struct EntryHeader {
    uint64_t db_offset = 0;
    uint32_t len = 0;
    uint32_t pad = 0;
  };

  /// One record staged for (or riding in) a group-commit batch. Carries
  /// everything needed to build its extents and complete its append.
  struct PendingRecord {
    uint64_t rec_voff = 0;
    uint32_t rec_len = 0;
    uint32_t wrap_len = 0;  ///< wrap-marker pad preceding the record, 0 = none
    uint64_t lsn = 0;
    sim::Time start = 0;  ///< append() time (commit-latency histogram)
    AppendDone done;
  };

  /// One in-flight ExecuteAndAdvance batch. Pooled (free-list) so
  /// concurrent executions — the two-phase layer runs several — recycle
  /// slots instead of allocating shared counters per batch. Callbacks
  /// capture the slot *index*, never a pointer: the pool vector may grow.
  /// A slot stays live until it and every earlier batch have applied.
  struct ExecOp {
    uint64_t end = 0;        ///< virtual offset past the batch: its new head
    uint32_t remaining = 0;  ///< gMEMCPY acks outstanding
    uint32_t records = 0;    ///< records drained by this batch
    bool live = false;
    bool applied = false;    ///< every gMEMCPY acked
    Done done;
  };

  /// One entry of the batch execute_and_advance is claiming.
  struct ExecEntry {
    uint64_t db_offset = 0;
    uint64_t data_voff = 0;  ///< virtual offset of the entry's bytes
    uint32_t len = 0;
    bool absorbed = false;   ///< a later entry of the batch overwrites it
  };

  /// Serializes the record piecewise straight into the log ring at
  /// virtual offset `voff` (header, then per entry: EntryHeader, data,
  /// zero pad to 8B), computing the body checksum incrementally. Returns
  /// the record's total length. No temporary buffer.
  uint32_t stage_record(std::span<const Entry> entries, uint64_t lsn,
                        uint64_t voff);

  /// Issues staged records while the issue rule allows a batch (see the
  /// definition): each batch packs as many staged records (plus their
  /// wrap markers) as fit in one ExtentVec, reserving the last extent
  /// for its tail slot, and replicates them in one gwritev+gFLUSH.
  void maybe_flush();
  /// Completes batch number `batch`, which must be the oldest in flight.
  void on_batch_done(uint64_t batch);

  /// Marks batch `idx` applied and retires the applied prefix of
  /// batches, issuing each retired batch's head advance.
  void finish_exec(uint32_t idx);

  /// Physical offset (within the whole region) of virtual log offset v.
  uint64_t log_phys(uint64_t v) const {
    return layout_.log_base() + (v % layout_.log_size);
  }

  /// The continuation here feeds straight into ReplicationGroup::gwrite,
  /// so it uses the group-level capacity (kDoneCap): append's tail-write
  /// continuation carries an AppendDone plus the LSN and must stay inline.
  void write_pointer(uint64_t ctrl_offset, uint64_t value,
                     sim::SmallFn<void(), kDoneCap> done);

  ReplicationGroup& group_;
  RegionLayout layout_;
  Options opts_;
  uint64_t head_ = 0;  ///< claim cursor: the next execute drains from here
  /// End of the last retired batch (finish_exec); the log bytes before
  /// it are free.
  uint64_t applied_head_ = 0;
  uint64_t tail_ = 0;
  /// Durable frontier: end of the last record whose commit batch acked.
  /// Execute drains [head_, durable_tail_) only — records beyond it are
  /// staged or in flight, so the *replicas'* log areas do not hold their
  /// bytes yet and a gMEMCPY there would apply garbage.
  uint64_t durable_tail_ = 0;
  uint64_t next_lsn_ = 1;
  Stats stats_;
  sim::SlotPool<ExecOp> exec_ops_;
  sim::Ring<uint32_t> exec_order_;   ///< live batches, in issue order
  // execute_and_advance's scratch, reused so a warm call allocates
  // nothing. A completion that re-enters the call while a batch's copies
  // are being issued pushes its batch above the outer one's entries and
  // pops it before returning.
  std::vector<ExecEntry> exec_entries_;
  std::vector<uint32_t> exec_by_offset_;  ///< entry indices by db_offset

  // Group-commit state: staged appends wait here until the issue rule
  // lets a batch go out. Batch b is the b-th issued; it writes tail slot
  // b % 2, and its records sit in row b % 2 of the fixed inflight_ array
  // (bounded by the extent capacity) until the chain ack fires them.
  // Batches [batches_done_, batches_issued_) are in flight, at most two.
  sim::Ring<PendingRecord> staged_;
  PendingRecord inflight_[2][ExtentVec::kCapacity];
  uint32_t inflight_count_[2] = {};
  uint64_t batches_issued_ = 0;
  uint64_t batches_done_ = 0;
  stats::Histogram records_per_gwrite_;
  stats::Histogram commit_latency_;
};

/// Shard-per-log-segment mode (DESIGN.md "Sharded datapath"): K
/// independent ReplicatedWals over one group, segment `s` owning slice
/// `s` of the region (`layout.shard_slice(s)`). Under a ShardedGroup
/// with a range router whose span equals the slice size, each segment's
/// records, tail writes and execute gMEMCPYs ride their own chain —
/// K group-commit pipelines instead of one. LSNs are per-segment.
class ShardedWal {
 public:
  using Entry = ReplicatedWal::Entry;
  using AppendDone = ReplicatedWal::AppendDone;
  using Done = ReplicatedWal::Done;

  /// `slice` is the shard-0 layout (base must be 0); segment `s` uses
  /// `slice.shard_slice(s)`.
  ShardedWal(ReplicationGroup& group, RegionLayout slice, uint32_t shards)
      : ShardedWal(group, slice, shards, ReplicatedWal::Options{}) {}
  ShardedWal(ReplicationGroup& group, RegionLayout slice, uint32_t shards,
             ReplicatedWal::Options opts);

  uint32_t shards() const { return static_cast<uint32_t>(wals_.size()); }
  ReplicatedWal& shard(size_t s) { return *wals_[s]; }
  const ReplicatedWal& shard(size_t s) const { return *wals_[s]; }

  /// Appends to segment `s` (callers with a partition key route here).
  bool append_to(uint32_t s, std::span<const Entry> entries,
                 AppendDone done) {
    return wals_[s]->append(entries, std::move(done));
  }
  bool append_to(uint32_t s, std::initializer_list<Entry> entries,
                 AppendDone done) {
    return append_to(s, std::span<const Entry>(entries.begin(), entries.size()),
                     std::move(done));
  }
  bool execute_and_advance(uint32_t s, Done done) {
    return wals_[s]->execute_and_advance(std::move(done));
  }

  ReplicatedWal::Stats totals() const;

 private:
  std::vector<std::unique_ptr<ReplicatedWal>> wals_;
};

template <typename LoadFn, typename EntryFn>
ReplicatedWal::WalkEnd ReplicatedWal::walk(const RegionLayout& layout,
                                           LoadFn&& load, uint64_t from,
                                           uint64_t to, uint64_t* next_lsn,
                                           EntryFn&& on_entry) {
  auto phys = [&](uint64_t v) {
    return layout.log_base() + (v % layout.log_size);
  };
  WalkEnd end{from, 0};
  // Streaming scratch: the body is folded into the CRC through this fixed
  // chunk, so the walk's footprint is O(1) instead of O(record).
  uint8_t chunk[512];
  constexpr uint32_t kChunk = sizeof(chunk);
  while (end.pos < to) {
    const uint64_t v = end.pos;
    RecordHeader hdr;
    load(phys(v), &hdr, sizeof(hdr));
    if (hdr.total_len == 0 || v + hdr.total_len > to) break;
    if (hdr.magic == kWrapMagic) {
      end.pos += hdr.total_len;
      continue;
    }
    if (hdr.magic != kRecordMagic || hdr.total_len < sizeof(RecordHeader) ||
        (*next_lsn != 0 && hdr.lsn != *next_lsn)) {
      break;  // torn tail, or log space reused since the caller's last walk
    }
    // Pass 1: fold the body through the CRC chunk by chunk.
    const uint32_t body = hdr.total_len - sizeof(RecordHeader);
    uint32_t crc = 0xFFFFFFFFu;
    for (uint32_t off = 0; off < body;) {
      const uint32_t n = body - off < kChunk ? body - off : kChunk;
      load(phys(v + sizeof(RecordHeader) + off), chunk, n);
      crc = crc32_update(crc, chunk, n);
      off += n;
    }
    if (~crc != hdr.crc) break;
    // Pass 2: hand each entry to the caller. Records never straddle the
    // ring wrap, so an entry's bytes are contiguous in the region.
    uint64_t p = v + sizeof(RecordHeader);
    for (uint32_t i = 0; i < hdr.num_entries; ++i) {
      EntryHeader eh;
      load(phys(p), &eh, sizeof(eh));
      p += sizeof(eh);
      on_entry(eh.db_offset, phys(p), eh.len);
      p += (eh.len + 7) & ~uint64_t{7};
    }
    *next_lsn = hdr.lsn + 1;
    ++end.records;
    end.pos = v + hdr.total_len;
  }
  return end;
}

template <typename LoadFn, typename StoreFn>
uint64_t ReplicatedWal::replay(const RegionLayout& layout, LoadFn&& load,
                               StoreFn&& store) {
  uint64_t head = 0;
  load(layout.head_ptr_offset(), &head, 8);
  const uint64_t tail = load_tail(layout, load);
  uint64_t next_lsn = 0;
  uint8_t chunk[512];
  constexpr uint32_t kChunk = sizeof(chunk);
  const auto apply = [&](uint64_t db_offset, uint64_t data, uint32_t len) {
    for (uint32_t off = 0; off < len;) {
      const uint32_t n = len - off < kChunk ? len - off : kChunk;
      load(data + off, chunk, n);
      store(layout.db_base() + db_offset + off, chunk, n);
      off += n;
    }
  };
  return walk(layout, load, head, tail, &next_lsn, apply).records;
}

}  // namespace hyperloop::core
