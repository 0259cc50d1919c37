#include "core/lock.h"

#include <gtest/gtest.h>

#include <functional>

#include "backends.h"
#include "forwarding_group.h"
#include "sim/rng.h"

namespace hyperloop::core {
namespace {

constexpr size_t kReplicas = 3;

/// A lock manager over one backend's 3-replica group.
class LockHarness {
 public:
  explicit LockHarness(Backend b)
      : group(make_group(b, cluster, layout.region_size, 16)) {}

  void run(sim::Duration d = sim::msec(200)) {
    cluster.loop().run_until(cluster.loop().now() + d);
  }

  uint64_t lock_word(size_t replica, uint32_t id) const {
    uint64_t v = 0;
    group->replica_load(replica, layout.lock_offset(id), &v, 8);
    return v;
  }
  uint64_t reader_count(size_t replica, uint32_t id) const {
    uint64_t v = 0;
    group->replica_load(replica, layout.reader_offset(id), &v, 8);
    return v;
  }

  Cluster cluster{backend_cluster_config()};
  RegionLayout layout = [] {
    RegionLayout l;
    l.region_size = 1 << 20;
    l.log_size = 64 << 10;
    l.num_locks = 32;
    return l;
  }();
  std::unique_ptr<ReplicationGroup> group;
  GroupLockManager locks{*group, layout};
};

struct LockFixture : ::testing::Test, LockHarness {
  LockFixture() : LockHarness(Backend::kHyperLoop) {}
};

struct LockTest : ::testing::TestWithParam<Backend>, LockHarness {
  LockTest() : LockHarness(GetParam()) {}
};

// Every scenario runs on every backend: the HyperLoop instance as
// LockFixture.<name>, the others as Backends/LockTest.<name>/<backend>.
#define LOCK_TEST(name)                        \
  void name(LockHarness& h);                   \
  TEST_F(LockFixture, name) { name(*this); }   \
  TEST_P(LockTest, name) { name(*this); }      \
  void name(LockHarness& h)

LOCK_TEST(WrLockAcquiresOnAllReplicas) {
  bool got = false;
  h.locks.wr_lock(3, 111, [&](bool ok) { got = ok; });
  h.run();
  ASSERT_TRUE(got);
  for (size_t i = 0; i < kReplicas; ++i) EXPECT_EQ(h.lock_word(i, 3), 111u);
  EXPECT_EQ(h.locks.stats().wr_acquired, 1u);
}

LOCK_TEST(WrUnlockReleasesEverywhere) {
  bool done = false;
  h.locks.wr_lock(3, 111, [&](bool) {
    h.locks.wr_unlock(3, [&] { done = true; });
  });
  h.run();
  ASSERT_TRUE(done);
  for (size_t i = 0; i < kReplicas; ++i) EXPECT_EQ(h.lock_word(i, 3), 0u);
}

LOCK_TEST(SecondOwnerWaitsForRelease) {
  bool a = false, b = false;
  h.locks.wr_lock(5, 1, [&](bool ok) { a = ok; });
  h.locks.wr_lock(5, 2, [&](bool ok) { b = ok; });
  h.run(sim::msec(5));
  EXPECT_TRUE(a);
  EXPECT_FALSE(b);  // still waiting
  EXPECT_GT(h.locks.stats().wr_conflicts, 0u);

  h.locks.wr_unlock(5, [] {});
  h.run();
  EXPECT_TRUE(b);
  for (size_t i = 0; i < kReplicas; ++i) EXPECT_EQ(h.lock_word(i, 5), 2u);
}

LOCK_TEST(MutualExclusionUnderContention) {
  // N logical owners hammer one lock; verify the critical section never
  // overlaps by checking a shared counter invariant.
  int in_critical = 0, max_in_critical = 0, completed = 0;
  const int kOwners = 8;
  for (uint64_t o = 1; o <= kOwners; ++o) {
    h.locks.wr_lock(7, o, [&](bool ok) {
      ASSERT_TRUE(ok);
      ++in_critical;
      max_in_critical = std::max(max_in_critical, in_critical);
      h.cluster.loop().schedule_after(sim::usec(50), [&] {
        --in_critical;
        h.locks.wr_unlock(7, [&] { ++completed; });
      });
    });
  }
  h.run(sim::seconds(2));
  EXPECT_EQ(completed, kOwners);
  EXPECT_EQ(max_in_critical, 1);
}

LOCK_TEST(PartialAcquisitionIsUndone) {
  // Another coordinator's stale lock, held on replica 1 only.
  bool poisoned = false;
  h.group->gcas(h.layout.lock_offset(9), 0, 99, ExecMap::one(1),
                [&](const CasResult&) { poisoned = true; });
  h.run(sim::msec(5));
  ASSERT_TRUE(poisoned);

  bool result = true;
  GroupLockManager::Config quick;
  quick.max_attempts = 3;
  GroupLockManager impatient(*h.group, h.layout, quick);
  impatient.wr_lock(9, 5, [&](bool ok) { result = ok; });
  h.run();
  EXPECT_FALSE(result);  // could not acquire
  EXPECT_GT(impatient.stats().partial_undos, 0u);
  // Replicas 0 and 2 must have been rolled back to 0.
  EXPECT_EQ(h.lock_word(0, 9), 0u);
  EXPECT_EQ(h.lock_word(2, 9), 0u);
  EXPECT_EQ(h.lock_word(1, 9), 99u);
}

LOCK_TEST(RdLockIncrementsOneReplicaOnly) {
  bool got = false;
  h.locks.rd_lock(2, 1, [&](bool ok) { got = ok; });
  h.run();
  ASSERT_TRUE(got);
  EXPECT_EQ(h.reader_count(0, 2), 0u);
  EXPECT_EQ(h.reader_count(1, 2), 1u);
  EXPECT_EQ(h.reader_count(2, 2), 0u);
  bool rel = false;
  h.locks.rd_unlock(2, 1, [&] { rel = true; });
  h.run();
  ASSERT_TRUE(rel);
  EXPECT_EQ(h.reader_count(1, 2), 0u);
}

LOCK_TEST(MultipleReadersCoexist) {
  int granted = 0;
  for (int i = 0; i < 5; ++i) {
    h.locks.rd_lock(4, 2, [&](bool ok) { granted += ok ? 1 : 0; });
  }
  h.run();
  EXPECT_EQ(granted, 5);
  EXPECT_EQ(h.reader_count(2, 4), 5u);
}

LOCK_TEST(ReaderBlocksWriterUntilDrained) {
  bool reader = false, writer = false;
  h.locks.rd_lock(6, 0, [&](bool ok) { reader = ok; });
  h.run(sim::msec(5));
  ASSERT_TRUE(reader);

  h.locks.wr_lock(6, 42, [&](bool ok) { writer = ok; });
  h.run(sim::msec(5));
  EXPECT_FALSE(writer);  // writer word held, waiting for readers

  h.locks.rd_unlock(6, 0, [] {});
  h.run();
  EXPECT_TRUE(writer);
}

LOCK_TEST(WriterBlocksNewReaders) {
  bool writer = false, reader = false;
  h.locks.wr_lock(8, 7, [&](bool ok) { writer = ok; });
  h.run(sim::msec(5));
  ASSERT_TRUE(writer);

  h.locks.rd_lock(8, 1, [&](bool ok) { reader = ok; });
  h.run(sim::msec(5));
  EXPECT_FALSE(reader);

  h.locks.wr_unlock(8, [] {});
  h.run();
  EXPECT_TRUE(reader);
}

LOCK_TEST(ReaderGivesUpBehindAWriterThatNeverLeaves) {
  // The writer never releases. The reader's increment lands, its check
  // sees the writer, it backs out, then probes the writer word back to
  // back: after max_attempts probes it fails, holding no count.
  constexpr uint32_t kId = 14;
  constexpr size_t kReplica = 2;
  constexpr int kAttempts = 5;
  bool writer = false;
  h.locks.wr_lock(kId, 5, [&](bool ok) { writer = ok; });
  h.run(sim::msec(5));
  ASSERT_TRUE(writer);

  ForwardingGroup counted(*h.group);
  GroupLockManager readers(counted, h.layout, {.max_attempts = kAttempts});
  int calls = 0;
  bool acquired = true;
  readers.rd_lock(kId, kReplica, [&](bool ok) {
    ++calls;
    acquired = ok;
  });
  h.run();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(acquired);
  // The pair, the back-out decrement, then one probe per attempt.
  EXPECT_EQ(counted.gcas_count(), 3u + kAttempts);
  for (size_t r = 0; r < kReplicas; ++r) {
    EXPECT_EQ(h.reader_count(r, kId), 0u) << "replica " << r;
    EXPECT_EQ(h.lock_word(r, kId), 5u) << "replica " << r;
  }
}

/// Forwards every primitive to `inner`, running `hook` once when the first
/// gCAS forwarded after arm() completes, just before that gCAS's own
/// callback.
class CompletionTap final : public ForwardingGroup {
 public:
  using ForwardingGroup::ForwardingGroup;

  void arm(std::function<void()> hook) { hook_ = std::move(hook); }

  void gcas(uint64_t offset, uint64_t expected, uint64_t desired,
            ExecMap exec, CasDone done) override {
    if (!hook_) {
      ForwardingGroup::gcas(offset, expected, desired, exec, std::move(done));
      return;
    }
    ForwardingGroup::gcas(
        offset, expected, desired, exec,
        [hook = std::move(hook_), d = std::move(done)](
            const CasResult& r) mutable {
          hook();
          d(r);
        });
    hook_ = nullptr;
  }

 private:
  std::function<void()> hook_;
};

LOCK_TEST(WriterBehindAWriterAcquiresOnTheNextProbe) {
  // The holder releases as the waiter's pair returns with the lock held,
  // the moment a writer that slept between tries would go to sleep. A
  // waiter that probes back to back acquires within a probe that may
  // miss the release, one that sees it and its pair: 3 idle round trips.
  constexpr uint32_t kId = 15;
  sim::EventLoop& loop = h.cluster.loop();
  const sim::Time sent = loop.now();
  sim::Duration round_trip = 0;
  h.group->gcas(h.layout.lock_offset(kId), 0, 0, ExecMap::all(kReplicas),
                [&](const CasResult&) { round_trip = loop.now() - sent; });
  h.run(sim::msec(5));
  ASSERT_GT(round_trip, 0);
  bool holder = false;
  h.locks.wr_lock(kId, 1, [&](bool ok) { holder = ok; });
  h.run(sim::msec(5));
  ASSERT_TRUE(holder);

  CompletionTap tap(*h.group);
  GroupLockManager waiters(tap, h.layout);
  sim::Time released = 0, acquired = 0;
  tap.arm([&] {
    released = loop.now();
    h.locks.wr_unlock(kId, {});
  });
  waiters.wr_lock(kId, 2, [&](bool ok) {
    EXPECT_TRUE(ok);
    acquired = loop.now();
  });
  h.run();
  ASSERT_GT(released, 0);
  ASSERT_GT(acquired, released);
  EXPECT_LE(acquired - released, 3 * round_trip)
      << "one idle gCAS round trip is " << round_trip << " ns";
  EXPECT_EQ(waiters.stats().wr_conflicts, 1u);
  for (size_t r = 0; r < kReplicas; ++r) {
    EXPECT_EQ(h.lock_word(r, kId), 2u) << "replica " << r;
  }
}

LOCK_TEST(WriterGivesUpBehindAWriterThatNeverLeaves) {
  // The holder never releases. The waiter's pair finds the lock held, then
  // it probes the writer word back to back: after max_attempts probes it
  // fails, holding no replica's writer word and no count.
  constexpr uint32_t kId = 16;
  constexpr int kAttempts = 5;
  bool holder = false;
  h.locks.wr_lock(kId, 5, [&](bool ok) { holder = ok; });
  h.run(sim::msec(5));
  ASSERT_TRUE(holder);

  ForwardingGroup counted(*h.group);
  GroupLockManager waiters(counted, h.layout, {.max_attempts = kAttempts});
  int calls = 0;
  bool acquired = true;
  waiters.wr_lock(kId, 6, [&](bool ok) {
    ++calls;
    acquired = ok;
  });
  h.run();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(acquired);
  EXPECT_EQ(counted.gcas_count(), 2u + kAttempts);  // the pair, the probes
  for (size_t r = 0; r < kReplicas; ++r) {
    EXPECT_EQ(h.lock_word(r, kId), 5u) << "replica " << r;
    EXPECT_EQ(h.reader_count(r, kId), 0u) << "replica " << r;
  }
}

LOCK_TEST(WriterGivesUpBehindAReaderThatNeverLeaves) {
  // A reader holds a count on one replica and never unlocks. The writer's
  // pair sets its word everywhere but sees the count; it re-reads the
  // counts back to back, and after max_attempts reads it releases its
  // word and fails. No writer word is left behind; the count stays.
  constexpr uint32_t kId = 17;
  constexpr size_t kReplica = 1;
  constexpr int kAttempts = 5;
  bool reader = false;
  h.locks.rd_lock(kId, kReplica, [&](bool ok) { reader = ok; });
  h.run(sim::msec(5));
  ASSERT_TRUE(reader);

  ForwardingGroup counted(*h.group);
  GroupLockManager writers(counted, h.layout, {.max_attempts = kAttempts});
  int calls = 0;
  bool acquired = true;
  writers.wr_lock(kId, 6, [&](bool ok) {
    ++calls;
    acquired = ok;
  });
  h.run();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(acquired);
  // The pair, one count re-read per attempt, then the release.
  EXPECT_EQ(counted.gcas_count(), 3u + kAttempts);
  for (size_t r = 0; r < kReplicas; ++r) {
    EXPECT_EQ(h.lock_word(r, kId), 0u) << "replica " << r;
  }
  EXPECT_EQ(h.reader_count(kReplica, kId), 1u);
}

LOCK_TEST(IndependentLocksDoNotInterfere) {
  bool a = false, b = false;
  h.locks.wr_lock(10, 1, [&](bool ok) { a = ok; });
  h.locks.wr_lock(11, 2, [&](bool ok) { b = ok; });
  h.run();
  EXPECT_TRUE(a);
  EXPECT_TRUE(b);
}

LOCK_TEST(SeededReadersAndWritersNeverOverlap) {
  // Seeded mix of readers and writers on a few hot locks. A holder's
  // interval runs from its grant to its release call; no reader may hold
  // a replica's lock while a writer holds it, and at quiescence no lock
  // word or reader count is leaked.
  constexpr uint32_t kHot = 3;
  constexpr int kOps = 150;
  struct State {
    int readers[kHot][kReplicas] = {};
    bool writer[kHot] = {};
    int overlaps = 0;
    int released = 0;
    int active[kHot] = {};  ///< requested and not yet released
    int contended = 0;      ///< requests made while another was active
  } s;
  sim::EventLoop& loop = h.cluster.loop();
  sim::Rng rng(20261017);
  for (int i = 0; i < kOps; ++i) {
    const auto id = static_cast<uint32_t>(rng.next_below(kHot));
    const sim::Duration start = sim::usec(rng.uniform_int(0, 1000));
    const sim::Duration hold = sim::usec(rng.uniform_int(1, 40));
    if (rng.chance(0.3)) {
      const uint64_t owner = 1 + static_cast<uint64_t>(i);
      loop.schedule_after(start, [&h, &s, &loop, id, owner, hold] {
        s.contended += s.active[id]++ > 0 ? 1 : 0;
        h.locks.wr_lock(id, owner, [&h, &s, &loop, id, hold](bool ok) {
          ASSERT_TRUE(ok);
          for (int n : s.readers[id]) s.overlaps += n;
          s.overlaps += s.writer[id] ? 1 : 0;
          s.writer[id] = true;
          loop.schedule_after(hold, [&h, &s, id] {
            s.writer[id] = false;
            --s.active[id];
            h.locks.wr_unlock(id, [&s] { ++s.released; });
          });
        });
      });
    } else {
      const size_t replica = rng.next_below(kReplicas);
      loop.schedule_after(start, [&h, &s, &loop, id, replica, hold] {
        s.contended += s.active[id]++ > 0 ? 1 : 0;
        h.locks.rd_lock(id, replica,
                        [&h, &s, &loop, id, replica, hold](bool ok) {
                          ASSERT_TRUE(ok);
                          s.overlaps += s.writer[id] ? 1 : 0;
                          ++s.readers[id][replica];
                          loop.schedule_after(hold, [&h, &s, id, replica] {
                            --s.readers[id][replica];
                            --s.active[id];
                            h.locks.rd_unlock(id, replica,
                                              [&s] { ++s.released; });
                          });
                        });
      });
    }
  }
  h.run(sim::seconds(1));
  EXPECT_EQ(s.released, kOps);
  EXPECT_EQ(s.overlaps, 0);
  EXPECT_GE(s.contended, kOps / 2);  // the mix really interleaves
  for (uint32_t id = 0; id < kHot; ++id) {
    for (size_t r = 0; r < kReplicas; ++r) {
      EXPECT_EQ(h.lock_word(r, id), 0u) << "lock " << id << " replica " << r;
      EXPECT_EQ(h.reader_count(r, id), 0u)
          << "lock " << id << " replica " << r;
    }
  }
}

/// Forwards every primitive to `inner`, running `hook` once just before
/// the first gCAS that matches (offset, expected, desired, exec) is
/// forwarded — so ops the hook issues on `inner` execute right before it.
class InterposingGroup final : public ForwardingGroup {
 public:
  using ForwardingGroup::ForwardingGroup;

  struct Trap {
    uint64_t offset = 0, expected = 0, desired = 0;
    ExecMap exec;
  };
  void arm(Trap trap, std::function<void()> hook) {
    trap_ = trap;
    hook_ = std::move(hook);
  }

  void gcas(uint64_t offset, uint64_t expected, uint64_t desired,
            ExecMap exec, CasDone done) override {
    if (hook_ && offset == trap_.offset && expected == trap_.expected &&
        desired == trap_.desired && exec == trap_.exec) {
      std::function<void()> hook = std::move(hook_);
      hook_ = nullptr;
      hook();
    }
    ForwardingGroup::gcas(offset, expected, desired, exec, std::move(done));
  }

 private:
  Trap trap_;
  std::function<void()> hook_;
};

LOCK_TEST(WriterBetweenReaderIncrementAndCheckWins) {
  // The reader's pipelined pair is increment-then-check. A writer's pair
  // (set-then-count) issued between the two lands at the replica between
  // them: the writer's count read sees the reader, and the reader's check
  // sees the writer. The reader must back out and the writer must
  // acquire once the reader's decrement drains the count.
  const uint32_t id = 12;
  const size_t replica = 1;
  InterposingGroup tap(*h.group);
  GroupLockManager readers(tap, h.layout);
  bool hooked = false, writer = false, writer_released = false;
  bool reader = false, reader_during_writer = false;
  tap.arm({h.layout.lock_offset(id), 0, 0, ExecMap::one(replica)}, [&] {
    hooked = true;
    h.locks.wr_lock(id, 77, [&](bool ok) {
      writer = ok;
      h.cluster.loop().schedule_after(sim::usec(300), [&] {
        writer_released = true;
        h.locks.wr_unlock(id, {});
      });
    });
  });
  readers.rd_lock(id, replica, [&](bool ok) {
    reader = ok;
    reader_during_writer = !writer_released;
  });
  h.run();
  ASSERT_TRUE(hooked);
  EXPECT_TRUE(writer);
  EXPECT_TRUE(reader);
  EXPECT_FALSE(reader_during_writer) << "reader held the lock with the writer";
  EXPECT_EQ(h.locks.stats().wr_acquired, 1u);
  EXPECT_EQ(h.lock_word(replica, id), 0u);
  EXPECT_EQ(h.reader_count(replica, id), 1u);  // the reader, after the writer
}

INSTANTIATE_TEST_SUITE_P(Backends, LockTest,
                         ::testing::Values(Backend::kNaiveEvent,
                                           Backend::kNaivePolling,
                                           Backend::kNaiveSharedPolling,
                                           Backend::kFanout, Backend::kTcp,
                                           Backend::kSharded),
                         backend_name);

}  // namespace
}  // namespace hyperloop::core
