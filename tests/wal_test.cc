#include "core/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>

#include "backends.h"
#include "forwarding_group.h"
#include "sim/rng.h"

namespace hyperloop::core {
namespace {

// Reference CRC-32: the plain bitwise loop over the reflected polynomial.
uint32_t crc32_bitwise(uint32_t crc, const uint8_t* p, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return crc;
}

TEST(WalCrc32, KnownAnswer) {
  const char* check = "123456789";
  EXPECT_EQ(~ReplicatedWal::crc32_update(0xFFFFFFFFu, check, 9), 0xCBF43926u);
  EXPECT_EQ(~ReplicatedWal::crc32_update(0xFFFFFFFFu, check, 0), 0u);
}

// Every length up to two records' worth at each of the 8 misalignments,
// whole and split in two: replay folds a record in 512-byte chunks, and
// stage_record folds it piece by piece.
TEST(WalCrc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  constexpr size_t kMaxLen = 2048;
  alignas(8) uint8_t buf[kMaxLen + 8];
  sim::Rng rng(0xC3C);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.next_u64());
  for (size_t mis = 0; mis < 8; ++mis) {
    const uint8_t* p = buf + mis;
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const uint32_t want = crc32_bitwise(0xFFFFFFFFu, p, len);
      ASSERT_EQ(ReplicatedWal::crc32_update(0xFFFFFFFFu, p, len), want)
          << "len " << len << " misalignment " << mis;
      const size_t cut = len > 512 ? 512 : len / 3;
      const uint32_t head = ReplicatedWal::crc32_update(0xFFFFFFFFu, p, cut);
      ASSERT_EQ(ReplicatedWal::crc32_update(head, p + cut, len - cut), want)
          << "len " << len << " split at " << cut << " misalignment " << mis;
    }
  }
}

// The WAL must behave identically over every single-chain backend.
class WalTest : public ::testing::TestWithParam<Backend> {
 protected:
  WalTest() {
    layout_.region_size = 1 << 20;
    layout_.log_size = 64 << 10;
    layout_.num_locks = 16;
    group_ = make_backend(GetParam(), *cluster_, layout_.region_size, 16);
    wal_ = std::make_unique<ReplicatedWal>(*group_, layout_);
  }

  void run(sim::Duration d = sim::msec(200)) {
    cluster_->loop().run_until(cluster_->loop().now() + d);
  }

  std::vector<uint8_t> bytes(const std::string& s) {
    return std::vector<uint8_t>(s.begin(), s.end());
  }

  /// Replica `replica`'s durable tail, as replay reads it.
  uint64_t replica_tail(size_t replica) {
    return ReplicatedWal::load_tail(
        layout_, [&](uint64_t off, void* dst, uint32_t len) {
          group_->replica_load(replica, off, dst, len);
        });
  }

  /// Appends `records`, lets them commit, and claims them as one execute
  /// batch of `wal`; `*truncated` turns true at its head advance.
  void claim_one_batch(
      ReplicatedWal& wal,
      std::span<const std::vector<ReplicatedWal::Entry>> records,
      bool* truncated) {
    for (const auto& rec : records) {
      ASSERT_TRUE(wal.append(rec, [](uint64_t) {}));
    }
    run();
    ASSERT_TRUE(wal.execute_and_advance([truncated] { *truncated = true; }));
    ASSERT_EQ(wal.stats().exec_batches, 1u);
    run();
  }

  std::string db_read(size_t replica, uint64_t db_off, size_t len) {
    std::string out(len, '\0');
    group_->replica_load(replica, layout_.db_base() + db_off, out.data(),
                         static_cast<uint32_t>(len));
    return out;
  }

  RegionLayout layout_;
  std::unique_ptr<Cluster> cluster_ =
      std::make_unique<Cluster>(backend_cluster_config());
  std::unique_ptr<BackendGroup> group_;
  std::unique_ptr<ReplicatedWal> wal_;
};

TEST_P(WalTest, AppendCommitsDurably) {
  uint64_t lsn = 0;
  ASSERT_TRUE(wal_->append({{0, bytes("record-one")}},
                           [&](uint64_t l) { lsn = l; }));
  run();
  EXPECT_EQ(lsn, 1u);
  EXPECT_EQ(wal_->stats().records_appended, 1u);
  EXPECT_GT(wal_->used_bytes(), 0u);

  // The record and tail are durable on every replica: crash + inspect.
  for (size_t i = 0; i < 3; ++i) {
    group_->replica_server(i).nvm().crash();
    EXPECT_EQ(replica_tail(i), wal_->tail()) << "replica " << i;
  }
}

TEST_P(WalTest, ExecuteAppliesToDbOnAllReplicas) {
  bool executed = false;
  ASSERT_TRUE(wal_->append({{100, bytes("alpha")}, {300, bytes("beta")}},
                           [&](uint64_t) {
                             wal_->execute_and_advance(
                                 [&] { executed = true; });
                           }));
  run();
  ASSERT_TRUE(executed);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(db_read(i, 100, 5), "alpha") << i;
    EXPECT_EQ(db_read(i, 300, 4), "beta") << i;
  }
  EXPECT_TRUE(wal_->empty());
}

// The execute batch's gMEMCPYs ride unflushed and the flushed head
// advance behind them persists them (group.h), so records the log has
// truncated are durable in the DB area: a crash after the advance loses
// neither the head nor the applied bytes.
TEST_P(WalTest, AppliedRecordsSurviveACrashAfterTheHeadAdvance) {
  bool truncated = false;
  ASSERT_TRUE(wal_->append({{100, bytes("applied")}}, [&](uint64_t) {
    wal_->execute_and_advance([&] { truncated = true; });
  }));
  run();
  ASSERT_TRUE(truncated);
  for (size_t i = 0; i < 3; ++i) {
    group_->replica_server(i).nvm().crash();
    uint64_t head = 0;
    group_->replica_load(i, layout_.head_ptr_offset(), &head, 8);
    EXPECT_EQ(head, wal_->tail()) << "replica " << i;
    EXPECT_EQ(replica_tail(i), wal_->tail()) << "replica " << i;
    EXPECT_EQ(db_read(i, 100, 7), "applied") << "replica " << i;
  }
}

TEST_P(WalTest, ExecuteOnEmptyLogReturnsFalse) {
  EXPECT_FALSE(wal_->execute_and_advance([] {}));
}

TEST_P(WalTest, AppendBackpressureWhenFull) {
  // Fill the log without truncating.
  std::vector<uint8_t> big(4096, 0xEE);
  int appended = 0;
  while (wal_->append({{0, big}}, [](uint64_t) {})) ++appended;
  EXPECT_GT(appended, 5);
  EXPECT_GE(wal_->stats().append_failures, 1u);
  run(sim::msec(500));

  // Truncate one record; an append must succeed again.
  bool ex = false;
  ASSERT_TRUE(wal_->execute_and_advance([&] { ex = true; }));
  run();
  ASSERT_TRUE(ex);
  EXPECT_TRUE(wal_->append({{0, big}}, [](uint64_t) {}));
  run(sim::msec(500));
}

TEST_P(WalTest, GroupCommitBatchesBurstAppends) {
  ReplicatedWal::Options o;
  o.staged_capacity = 32;
  o.loop = &cluster_->loop();
  ReplicatedWal wal(*group_, layout_, o);
  const int n = 17;
  std::vector<uint64_t> lsns;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(wal.append({{static_cast<uint64_t>(i) * 8, bytes("grp")}},
                           [&](uint64_t l) { lsns.push_back(l); }));
  }
  // The first batch is in flight; later appends are parked in the window.
  EXPECT_GT(wal.staged_records(), 0u);
  run();
  ASSERT_EQ(lsns.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(lsns[i], static_cast<uint64_t>(i) + 1);  // commit in LSN order
  }
  EXPECT_EQ(wal.staged_records(), 0u);
  // Group commit: fewer traversals than records, some batch carried > 1.
  EXPECT_LT(wal.stats().gwritev_batches, static_cast<uint64_t>(n));
  EXPECT_GT(wal.records_per_gwrite().max(), 1);
  EXPECT_EQ(wal.records_per_gwrite().count(), wal.stats().gwritev_batches);
  EXPECT_EQ(wal.commit_latency().count(), static_cast<uint64_t>(n));

  // Every batched record is durably committed on every replica: the
  // replicated tail covers all n records.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(replica_tail(i), wal.tail()) << "replica " << i;
  }
}

TEST_P(WalTest, GroupCommitWindowBackpressure) {
  ReplicatedWal::Options o;
  o.staged_capacity = 2;
  ReplicatedWal wal(*group_, layout_, o);
  int committed = 0;
  // The first append issues its batch immediately, and the second goes
  // out behind it, since that batch carries a single record. With two
  // batches in flight, the next two occupy the whole staged window.
  ASSERT_TRUE(wal.append({{0, bytes("a")}}, [&](uint64_t) { ++committed; }));
  ASSERT_TRUE(wal.append({{8, bytes("b")}}, [&](uint64_t) { ++committed; }));
  EXPECT_EQ(wal.stats().gwritev_batches, 2u);
  EXPECT_EQ(wal.staged_records(), 0u);
  ASSERT_TRUE(wal.append({{16, bytes("c")}}, [&](uint64_t) { ++committed; }));
  ASSERT_TRUE(wal.append({{24, bytes("d")}}, [&](uint64_t) { ++committed; }));
  EXPECT_EQ(wal.staged_records(), 2u);

  // Window full -> same failure surface as a full log.
  EXPECT_FALSE(wal.append({{32, bytes("e")}}, [](uint64_t) {}));
  EXPECT_GE(wal.stats().append_failures, 1u);

  run();
  EXPECT_EQ(committed, 4);
  EXPECT_EQ(wal.staged_records(), 0u);

  // Batches drained; the window admits appends again.
  bool again = false;
  EXPECT_TRUE(wal.append({{32, bytes("e")}}, [&](uint64_t) { again = true; }));
  run();
  EXPECT_TRUE(again);
}

TEST_P(WalTest, WrapAroundPreservesRecords) {
  // Append/execute enough that the virtual offsets wrap the ring several
  // times; every record must still land correctly.
  std::vector<uint8_t> payload(3000, 0);
  int rounds = 0;
  std::function<void()> step = [&] {
    if (rounds >= 60) return;
    ++rounds;
    for (auto& b : payload) b = static_cast<uint8_t>(rounds);
    ASSERT_TRUE(wal_->append(
        {{static_cast<uint64_t>(rounds % 7) * 4096, payload}},
        [&](uint64_t) {
          wal_->execute_and_advance([&] { step(); });
        }));
  };
  step();
  run(sim::seconds(5));
  EXPECT_EQ(rounds, 60);
  EXPECT_GT(wal_->tail(), layout_.log_size);  // wrapped at least once
  EXPECT_EQ(db_read(2, static_cast<uint64_t>(60 % 7) * 4096, 1)[0],
            static_cast<char>(60));
}

TEST_P(WalTest, ReplayRecoversCommittedRecords) {
  // Append two records, execute none, crash a replica, replay its image.
  ASSERT_TRUE(wal_->append({{0, bytes("first!")}}, [](uint64_t) {}));
  ASSERT_TRUE(wal_->append({{64, bytes("second")}}, [](uint64_t) {}));
  run();

  Server& victim = group_->replica_server(1);
  victim.nvm().crash();

  // DB area is empty (nothing executed), but the log is durable; replay.
  const rdma::Addr base = group_->replica_region_base(1);
  const uint64_t applied = ReplicatedWal::replay(
      layout_,
      [&](uint64_t off, void* dst, uint32_t len) {
        victim.mem().read(base + off, dst, len);
      },
      [&](uint64_t off, const void* src, uint32_t len) {
        victim.mem().write(base + off, src, len);
      });
  EXPECT_EQ(applied, 2u);
  EXPECT_EQ(db_read(1, 0, 6), "first!");
  EXPECT_EQ(db_read(1, 64, 6), "second");
}

// walk() resumes only where the record it expects still is: a reader
// whose next LSN no longer sits at its position (the ring reused the
// space) reads nothing.
TEST_P(WalTest, WalkStopsWhereTheExpectedLsnIsNotFound) {
  for (const char* rec : {"first!", "second", "third!"}) {
    ASSERT_TRUE(wal_->append({{0, bytes(rec)}}, [](uint64_t) {}));
  }
  run();
  const auto load = [&](uint64_t off, void* dst, uint32_t len) {
    group_->replica_load(2, off, dst, len);
  };
  uint64_t next_lsn = 0, entries = 0;
  const auto all = ReplicatedWal::walk(
      layout_, load, 0, wal_->tail(), &next_lsn,
      [&](uint64_t, uint64_t, uint32_t) { ++entries; });
  EXPECT_EQ(all.records, 3u);
  EXPECT_EQ(all.pos, wal_->tail());
  EXPECT_EQ(next_lsn, 4u);
  EXPECT_EQ(entries, 3u);
  next_lsn = 2;  // position 0 holds LSN 1
  const auto none = ReplicatedWal::walk(layout_, load, 0, wal_->tail(),
                                        &next_lsn,
                                        [&](uint64_t, uint64_t, uint32_t) {
                                          ++entries;
                                        });
  EXPECT_EQ(none.records, 0u);
  EXPECT_EQ(none.pos, 0u);
  EXPECT_EQ(next_lsn, 2u);
  EXPECT_EQ(entries, 3u);
}

TEST_P(WalTest, ReplayIsIdempotent) {
  ASSERT_TRUE(wal_->append({{8, bytes("idem")}}, [](uint64_t) {}));
  run();
  const rdma::Addr base = group_->replica_region_base(0);
  Server& r = group_->replica_server(0);
  auto load = [&](uint64_t off, void* dst, uint32_t len) {
    r.mem().read(base + off, dst, len);
  };
  auto store = [&](uint64_t off, const void* src, uint32_t len) {
    r.mem().write(base + off, src, len);
  };
  EXPECT_EQ(ReplicatedWal::replay(layout_, load, store), 1u);
  EXPECT_EQ(ReplicatedWal::replay(layout_, load, store), 1u);  // same result
  EXPECT_EQ(db_read(0, 8, 4), "idem");
}

TEST_P(WalTest, UncommittedTailIsNotReplayed) {
  // Simulate a torn append: record bytes written locally but tail pointer
  // never replicated (client "crashes" before the tail gwrite lands).
  ASSERT_TRUE(wal_->append({{0, bytes("committed")}}, [](uint64_t) {}));
  run();

  // Hand-craft garbage after the tail on replica 0's image.
  const rdma::Addr base = group_->replica_region_base(0);
  Server& r = group_->replica_server(0);
  const char junk[] = "torn-record-gibberish";
  r.mem().write(base + layout_.log_base() + (wal_->tail() % layout_.log_size),
                junk, sizeof(junk));

  const uint64_t applied = ReplicatedWal::replay(
      layout_,
      [&](uint64_t off, void* dst, uint32_t len) {
        r.mem().read(base + off, dst, len);
      },
      [&](uint64_t off, const void* src, uint32_t len) {
        r.mem().write(base + off, src, len);
      });
  EXPECT_EQ(applied, 1u);  // only the committed record
}

/// Forwards every primitive to `inner` but holds each gMEMCPY's ack
/// (the copy itself lands) until release(), so a test decides when an
/// execute batch finishes.
class MemcpyAckGate final : public ForwardingGroup {
 public:
  using ForwardingGroup::ForwardingGroup;

  size_t held() const { return held_.size(); }
  void release() {
    std::vector<Done> acks = std::move(held_);
    held_.clear();
    for (Done& d : acks) d();
  }

  void gmemcpy(uint64_t src, uint64_t dst, uint32_t len, bool flush,
               Done done) override {
    inner_.gmemcpy(src, dst, len, flush,
                   [this, d = std::move(done)]() mutable {
                     held_.push_back(std::move(d));
                   });
  }

 private:
  std::vector<Done> held_;
};

TEST_P(WalTest, AppliedFrontierWaitsForEarlierBatches) {
  // Batch 1 applies record A and its gMEMCPY ack is held. Batch 2 drains
  // record B, which has no entries, so it finishes at once. Batch 2's
  // head advance must not jump over batch 1: none goes out until batch 1
  // finishes, then both batches retire together.
  MemcpyAckGate gate(*group_);
  ReplicatedWal wal(gate, layout_);
  uint64_t lsn_a = 0, lsn_b = 0;
  ASSERT_TRUE(wal.append({{0, bytes("AAAA")}}, [&](uint64_t l) { lsn_a = l; }));
  run();
  ASSERT_TRUE(wal.execute_and_advance(ReplicatedWal::Done{}));
  run();
  ASSERT_EQ(gate.held(), 1u);
  ASSERT_TRUE(wal.append(std::span<const ReplicatedWal::Entry>(),
                         [&](uint64_t l) { lsn_b = l; }));
  run();
  ASSERT_EQ(lsn_b, lsn_a + 1);

  bool truncated = false;
  ASSERT_TRUE(wal.execute_and_advance([&] { truncated = true; }));
  run();
  EXPECT_FALSE(truncated);
  uint64_t head = ~uint64_t{0};
  group_->replica_load(0, layout_.head_ptr_offset(), &head, 8);
  EXPECT_EQ(head, 0u) << "head advanced past an unapplied record";

  gate.release();
  EXPECT_EQ(db_read(1, 0, 4), "AAAA");
  run();
  EXPECT_TRUE(truncated);
  group_->replica_load(0, layout_.head_ptr_offset(), &head, 8);
  EXPECT_EQ(head, wal.tail());
}

TEST_P(WalTest, ClaimedButUnappliedLogSpaceIsNotFree) {
  // One execute batch has claimed every record of a full log, but its
  // gMEMCPY acks are held, so the copies may not have read the records
  // yet. An append wrapping onto that space rides the gWRITEV ring, which
  // nothing orders against the gMEMCPY ring, so it must fail until the
  // batch has applied.
  MemcpyAckGate gate(*group_);
  ReplicatedWal wal(gate, layout_);
  const std::vector<uint8_t> kb(1024, 0x5A);
  int records = 0;
  // Record i writes DB offset i x 1024, so no record of the batch
  // overwrites another and every copy stays held.
  auto append_kb = [&] {
    return wal.append({{uint64_t(records) * 1024, kb}}, [](uint64_t) {});
  };
  while (append_kb()) {
    ++records;
    run();
  }
  ASSERT_GT(records, 1);
  ASSERT_TRUE(wal.execute_and_advance(ReplicatedWal::Done{}));
  run();
  ASSERT_EQ(gate.held(), static_cast<size_t>(records));
  EXPECT_EQ(wal.head(), wal.tail()) << "the batch claims the whole log";
  EXPECT_FALSE(append_kb()) << "an append reused unapplied log space";

  gate.release();
  bool committed = false;
  EXPECT_TRUE(wal.append({{0, kb}}, [&](uint64_t) { committed = true; }));
  run();
  EXPECT_TRUE(committed);
}

// One execute batch of three records whose entries write DB offsets 0,
// 64, 0, 0, 128 and 64. The second 64-B entry at 0 overwrites the first,
// and the last entry overwrites the one at 64; the 32-B entry at 0 is
// shorter than the 64-B entry before it, so it absorbs nothing.
const std::vector<ReplicatedWal::Entry> kAbsorbingRecords[3] = {
    {{0, std::vector<uint8_t>(64, 'a')},
     {64, std::vector<uint8_t>(64, 'b')},
     {0, std::vector<uint8_t>(64, 'c')}},
    {{0, std::vector<uint8_t>(32, 'd')},
     {128, std::vector<uint8_t>(64, 'e')}},
    {{64, std::vector<uint8_t>(64, 'f')}},
};

// The first `len` DB bytes after applying every entry of `records` in
// log order.
std::string in_order_image(
    std::span<const std::vector<ReplicatedWal::Entry>> records, size_t len) {
  std::string db(len, '\0');
  for (const auto& rec : records) {
    for (const ReplicatedWal::Entry& e : rec) {
      std::copy(e.data.begin(), e.data.end(), db.begin() + e.db_offset);
    }
  }
  return db;
}

// An entry that a later entry of its batch overwrites (same offset, at
// least as long) gets no gMEMCPY; after the batch the client's copy and
// every replica hold the in-order image.
TEST_P(WalTest, LaterEntriesAbsorbEarlierOnesAtTheirOffset) {
  MemcpyAckGate gate(*group_);
  ReplicatedWal wal(gate, layout_);
  bool truncated = false;
  claim_one_batch(wal, kAbsorbingRecords, &truncated);
  if (HasFatalFailure()) return;
  EXPECT_EQ(gate.held(), 4u) << "one copy per entry nothing overwrites";
  EXPECT_EQ(wal.stats().entries_absorbed, 2u);
  EXPECT_FALSE(truncated);

  gate.release();
  run();
  EXPECT_TRUE(truncated);
  EXPECT_EQ(wal.stats().records_executed, 3u);
  const std::string want = in_order_image(kAbsorbingRecords, 192);
  std::string client(want.size(), '\0');
  group_->client_load(layout_.db_base(), client.data(),
                      static_cast<uint32_t>(client.size()));
  EXPECT_EQ(client, want) << "client copy";
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(db_read(i, 0, want.size()), want) << "replica " << i;
  }
}

// A crash while the batch's copies are unacked, before its head advance:
// replay applies every record in log order, absorbed entries included,
// and yields the same DB bytes on every replica.
TEST_P(WalTest, ACrashBeforeTheHeadAdvanceReplaysAbsorbedEntries) {
  MemcpyAckGate gate(*group_);
  ReplicatedWal wal(gate, layout_);
  bool truncated = false;
  claim_one_batch(wal, kAbsorbingRecords, &truncated);
  if (HasFatalFailure()) return;
  ASSERT_EQ(gate.held(), 4u);
  const std::string want = in_order_image(kAbsorbingRecords, 192);
  for (size_t i = 0; i < 3; ++i) {
    Server& r = group_->replica_server(i);
    r.nvm().crash();
    uint64_t head = ~uint64_t{0};
    group_->replica_load(i, layout_.head_ptr_offset(), &head, 8);
    ASSERT_EQ(head, 0u) << "replica " << i;
    const rdma::Addr base = group_->replica_region_base(i);
    const uint64_t replayed = ReplicatedWal::replay(
        layout_,
        [&](uint64_t off, void* dst, uint32_t len) {
          r.mem().read(base + off, dst, len);
        },
        [&](uint64_t off, const void* src, uint32_t len) {
          r.mem().write(base + off, src, len);
        });
    EXPECT_EQ(replayed, 3u) << "replica " << i;
    EXPECT_EQ(db_read(i, 0, want.size()), want) << "replica " << i;
  }
}

// Entries at distinct offsets absorb nothing, even where they overlap or
// a shorter one follows a longer one.
TEST_P(WalTest, DistinctOffsetsAbsorbNothing) {
  const std::vector<ReplicatedWal::Entry> records[2] = {
      {{0, std::vector<uint8_t>(64, 'p')},
       {32, std::vector<uint8_t>(16, 'q')}},
      {{64, std::vector<uint8_t>(64, 'r')},
       {8, std::vector<uint8_t>(8, 's')},
       {128, std::vector<uint8_t>(32, 't')}},
  };
  MemcpyAckGate gate(*group_);
  ReplicatedWal wal(gate, layout_);
  bool truncated = false;
  claim_one_batch(wal, records, &truncated);
  if (HasFatalFailure()) return;
  EXPECT_EQ(gate.held(), 5u);
  EXPECT_EQ(wal.stats().entries_absorbed, 0u);
  gate.release();
  run();
  EXPECT_TRUE(truncated);
  const std::string want = in_order_image(records, 160);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(db_read(i, 0, want.size()), want) << "replica " << i;
  }
}

TEST_P(WalTest, ReloadResumesLsnsAfterTheLog) {
  // Records 1-2 are applied and truncated, 3-4 committed only. A
  // restarted WAL drains 3-4 and numbers new records from 5.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(wal_->append({{uint64_t(i) * 8, bytes("abcdefgh")}},
                             [](uint64_t) {}));
    run();
    if (i == 1) {
      ASSERT_TRUE(wal_->execute_and_advance(ReplicatedWal::Done{}));
    }
    run();
  }
  ReplicatedWal restarted(*group_, layout_);
  restarted.reload_pointers();
  ASSERT_TRUE(restarted.execute_and_advance(ReplicatedWal::Done{}));
  run();
  EXPECT_EQ(restarted.stats().records_executed, 2u);

  uint64_t lsn = 0;
  ASSERT_TRUE(restarted.append({{64, bytes("new")}},
                               [&](uint64_t l) { lsn = l; }));
  run();
  EXPECT_EQ(lsn, 5u);
  ASSERT_TRUE(restarted.execute_and_advance(ReplicatedWal::Done{}));
  run();
  EXPECT_EQ(db_read(2, 64, 3), "new");
}

// Two appends issued back to back go out as two batches in flight, each
// writing its own tail slot (region_layout.h). Every hop gathers a
// WRITE's bytes when its NIC executes it, so a slot shared by both
// batches could carry the second batch's tail ahead of that batch's
// records. Every 50 ns, on every replica, the log from the durable head
// to the larger tail slot must walk to the tail with consecutive LSNs.
// The log is small, so the rounds wrap it.
TEST_P(WalTest, TailSlotsNeverRunAheadOfTheirRecords) {
  RegionLayout small = layout_;
  small.log_size = 4096;
  ReplicatedWal wal(*group_, small);
  const std::vector<uint8_t> payload(1000, 0x3C);
  sim::EventLoop& loop = cluster_->loop();
  uint64_t samples = 0;
  const auto check_replicas = [&] {
    for (size_t i = 0; i < 3; ++i) {
      const auto load = [&](uint64_t off, void* dst, uint32_t len) {
        group_->replica_load(i, off, dst, len);
      };
      uint64_t head = 0, next_lsn = 0;
      load(small.head_ptr_offset(), &head, 8);
      const uint64_t tail = ReplicatedWal::load_tail(small, load);
      const auto end = ReplicatedWal::walk(small, load, head, tail, &next_lsn,
                                           [](uint64_t, uint64_t, uint32_t) {});
      ASSERT_EQ(end.pos, tail)
          << "replica " << i << " at t=" << loop.now() << ": the tail runs "
          << tail - end.pos << " bytes ahead of its records";
      ++samples;
    }
  };
  for (int round = 0; round < 6; ++round) {
    int committed = 0;
    bool truncated = false;
    for (uint64_t k = 0; k < 2; ++k) {
      ASSERT_TRUE(wal.append({{k * 1024, payload}}, [&](uint64_t) {
        if (++committed == 2) {
          wal.execute_and_advance([&] { truncated = true; });
        }
      }));
    }
    ASSERT_EQ(wal.stats().gwritev_batches, 2u * (round + 1))
        << "the second append did not go out behind the first";
    const sim::Time deadline = loop.now() + sim::msec(20);
    while (!truncated && loop.now() < deadline) {
      loop.run_until(loop.now() + sim::nsec(50));
      check_replicas();
      if (HasFatalFailure()) return;
    }
    ASSERT_TRUE(truncated) << "round " << round;
  }
  EXPECT_GT(wal.tail(), 2 * small.log_size);  // wrapped more than once
  EXPECT_GT(samples, 6u * 3 * 50);
}

// A crash at any instant of a two-batch round. Each sampled instant
// re-runs the round on a fresh cluster, crashes every replica's NVM
// there and replays every replica: the records replayed must be a prefix
// of the two appended, and it must hold every record acknowledged before
// the crash.
TEST_P(WalTest, CrashDuringTwoBatchesReplaysAPrefixWithEveryAck) {
  struct Rig {
    explicit Rig(Backend b) {
      cluster = std::make_unique<Cluster>(backend_cluster_config());
      layout.region_size = 256 << 10;
      layout.log_size = 16 << 10;
      layout.num_locks = 16;
      group = make_backend(b, *cluster, layout.region_size, 16);
      wal = std::make_unique<ReplicatedWal>(*group, layout);
    }
    std::unique_ptr<Cluster> cluster;
    RegionLayout layout;
    std::unique_ptr<BackendGroup> group;
    std::unique_ptr<ReplicatedWal> wal;
  };
  const std::vector<uint8_t> payloads[2] = {std::vector<uint8_t>(300, 0xA1),
                                            std::vector<uint8_t>(300, 0xB2)};
  // Starts the round on `rig`; acked[k] turns true when record k commits.
  const auto start = [&](Rig& rig, bool* acked) {
    for (uint64_t k = 0; k < 2; ++k) {
      ASSERT_TRUE(rig.wal->append({{k * 512, payloads[k]}},
                                  [acked, k](uint64_t) { acked[k] = true; }));
    }
  };

  // Dry run: how long the round takes to acknowledge both records.
  sim::Duration span = 0;
  {
    Rig rig(GetParam());
    bool acked[2] = {};
    const sim::Time t0 = rig.cluster->loop().now();
    start(rig, acked);
    while (!acked[1] && rig.cluster->loop().now() - t0 < sim::msec(20)) {
      rig.cluster->loop().run_until(rig.cluster->loop().now() + sim::nsec(50));
    }
    ASSERT_TRUE(acked[0] && acked[1]);
    span = rig.cluster->loop().now() - t0;
  }

  // About 40 instants from the issue to just past the second ack.
  const sim::Duration step = std::max<sim::Duration>(sim::nsec(50), span / 40);
  int crashes = 0, replayed_both = 0;
  for (sim::Duration at = 0; at <= span + step; at += step) {
    Rig rig(GetParam());
    bool acked[2] = {};
    start(rig, acked);
    rig.cluster->loop().run_until(rig.cluster->loop().now() + at);
    const size_t acks = size_t{acked[0]} + size_t{acked[1]};
    ASSERT_TRUE(acked[0] || !acked[1]) << "acked out of order at " << at;
    for (size_t i = 0; i < 3; ++i) rig.group->replica_server(i).nvm().crash();
    ++crashes;
    for (size_t i = 0; i < 3; ++i) {
      Server& r = rig.group->replica_server(i);
      const rdma::Addr base = rig.group->replica_region_base(i);
      const uint64_t replayed = ReplicatedWal::replay(
          rig.layout,
          [&](uint64_t off, void* dst, uint32_t len) {
            r.mem().read(base + off, dst, len);
          },
          [&](uint64_t off, const void* src, uint32_t len) {
            r.mem().write(base + off, src, len);
          });
      ASSERT_GE(replayed, acks) << "replica " << i << " lost an ack at " << at;
      ASSERT_LE(replayed, 2u);
      replayed_both += replayed == 2 ? 1 : 0;
      for (uint64_t k = 0; k < 2; ++k) {
        std::vector<uint8_t> db(payloads[k].size());
        rig.group->replica_load(i, rig.layout.db_base() + k * 512, db.data(),
                                static_cast<uint32_t>(db.size()));
        const std::vector<uint8_t> want =
            k < replayed ? payloads[k] : std::vector<uint8_t>(db.size(), 0);
        ASSERT_EQ(db, want) << "replica " << i << " record " << k
                            << " after a crash at " << at;
      }
    }
  }
  EXPECT_GT(crashes, 20);
  EXPECT_GT(replayed_both, 0);
}

// execute_and_advance walks the client's copy of the log from the head to
// the durable tail, header by header. A header whose length is 0 would
// never advance that walk: it must stop the program, naming the header's
// virtual offset, in every build.
using WalDeathTest = WalTest;

TEST_P(WalDeathTest, ZeroRecordLengthAbortsTheApplyWalk) {
  bool committed = false;
  ASSERT_TRUE(wal_->append({{0, bytes("record")}},
                           [&](uint64_t) { committed = true; }));
  run();
  ASSERT_TRUE(committed);
  // The head record's header: magic, num_entries (4 B each), lsn (8 B),
  // then total_len.
  const uint32_t zero = 0;
  group_->client_store(layout_.log_base() + 16, &zero, sizeof(zero));
  EXPECT_DEATH(wal_->execute_and_advance({}),
               "corrupt log header at virtual offset 0: total_len=0");
}

// reload_pointers walks the recovered log the same way to find the last
// LSN, and must stop on the same header instead of spinning on it.
TEST_P(WalDeathTest, ZeroRecordLengthAbortsReload) {
  bool committed = false;
  ASSERT_TRUE(wal_->append({{0, bytes("record")}},
                           [&](uint64_t) { committed = true; }));
  run();
  ASSERT_TRUE(committed);
  const uint32_t zero = 0;
  group_->client_store(layout_.log_base() + 16, &zero, sizeof(zero));
  ReplicatedWal restarted(*group_, layout_);
  EXPECT_DEATH(restarted.reload_pointers(),
               "corrupt log header at virtual offset 0: total_len=0");
}

INSTANTIATE_TEST_SUITE_P(HyperLoop, WalDeathTest,
                         ::testing::Values(Backend::kHyperLoop),
                         backend_name);

// The event-mode Naïve instances keep the name they had when this suite
// ran on HyperLoop and Naïve only.
INSTANTIATE_TEST_SUITE_P(Backends, WalTest,
                         ::testing::ValuesIn(kSingleChainBackends),
                         [](const ::testing::TestParamInfo<Backend>& p) {
                           return p.param == Backend::kNaiveEvent
                                      ? std::string("NaiveRdma")
                                      : backend_name(p);
                         });

}  // namespace
}  // namespace hyperloop::core
