// The register-history checker (linearizability.h) on hand-made
// histories, then on DocStore: concurrent clients on a few hot keys, on
// every single-chain backend, over both read paths (the client's copy and
// one-sided reads from chain replicas). A read-modify-write enters the
// history as a read, then a write invoked when the read returns.
#include "linearizability.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>

#include "apps/docstore/docstore.h"
#include "backends.h"
#include "forwarding_group.h"
#include "sim/rng.h"

namespace hyperloop {
namespace {

using Tag = RegisterHistory::Tag;

/// Records one complete op: invoked at `inv`, responded at `resp`.
void op(RegisterHistory& h, bool write, Tag value, sim::Time inv,
        sim::Time resp) {
  const size_t i = h.invoke(0, write, value, inv);
  h.respond(i, resp, value);
}

TEST(RegisterHistoryTest, OverlappingOpsMayTakeEitherOrder) {
  RegisterHistory h;
  op(h, /*write=*/true, {1, 1}, 10, 40);
  op(h, /*write=*/false, {0, 0}, 15, 20);  // before the write took effect
  op(h, /*write=*/false, {1, 1}, 25, 30);  // after it
  op(h, /*write=*/true, {2, 1}, 35, 60);
  op(h, /*write=*/false, {1, 1}, 45, 70);  // overlaps the second write
  EXPECT_EQ(h.check(), "");
}

TEST(RegisterHistoryTest, ReadOfAnOverwrittenValueFails) {
  RegisterHistory h;
  op(h, /*write=*/true, {1, 1}, 10, 20);
  op(h, /*write=*/true, {2, 1}, 30, 40);
  op(h, /*write=*/false, {1, 1}, 50, 60);
  EXPECT_NE(h.check(), "");
}

TEST(RegisterHistoryTest, NewThenOldReadFails) {
  // Both reads overlap the write, but the second starts after the first
  // ended: once the new value was seen, the old one cannot come back.
  RegisterHistory h;
  op(h, /*write=*/true, {1, 1}, 10, 100);
  op(h, /*write=*/false, {1, 1}, 20, 30);
  op(h, /*write=*/false, {0, 0}, 40, 50);
  EXPECT_NE(h.check(), "");
}

TEST(RegisterHistoryTest, ReadBeforeItsWriteOrOfNoWriteFails) {
  RegisterHistory early;
  op(early, /*write=*/false, {1, 1}, 10, 20);
  op(early, /*write=*/true, {1, 1}, 30, 40);
  EXPECT_NE(early.check(), "");
  RegisterHistory unwritten;
  op(unwritten, /*write=*/false, {7, 7}, 10, 20);
  EXPECT_NE(unwritten.check(), "");
}

using core::Backend;
using core::kSingleChainBackends;

/// A DocStore that hands the value of its next read() to a tap.
/// read_modify_write runs its read half through the virtual read(), so a
/// tap set just before the call sees that value when the read returns.
class TappedDocStore final : public apps::DocStore {
 public:
  using Tap = std::function<void(bool ok, const std::vector<uint8_t>&)>;
  using DocStore::DocStore;

  void tap_next_read(Tap tap) { tap_ = std::move(tap); }

  void read(uint64_t key, ReadDone done) override {
    if (!tap_) {
      DocStore::read(key, std::move(done));
      return;
    }
    DocStore::read(key, [tap = std::exchange(tap_, nullptr),
                         done = std::move(done)](
                            bool ok, std::vector<uint8_t> v) mutable {
      tap(ok, v);
      done(ok, std::move(v));
    });
  }

 private:
  Tap tap_;
};

/// The (client, op) tag in a document's first 16 bytes; the initial
/// value for a document never written.
Tag tag_of(bool ok, const std::vector<uint8_t>& v) {
  Tag seen{};
  if (ok && v.size() >= 16) {
    std::memcpy(&seen.first, v.data(), 8);
    std::memcpy(&seen.second, v.data() + 8, 8);
  }
  return seen;
}

/// Closed-loop clients issue reads, updates and read-modify-writes on a
/// few hot keys. Every write stores a value whose first 16 bytes are its
/// (client, op) tag, so each read names the write it observed.
class DocStoreHistoryTest
    : public ::testing::TestWithParam<std::tuple<Backend, bool>> {
 protected:
  static constexpr uint64_t kClients = 4;
  static constexpr uint64_t kOpsPerClient = 100;
  static constexpr uint64_t kKeys = 3;
  static constexpr uint32_t kValueSize = 64;

  DocStoreHistoryTest() {
    const auto [backend, remote_reads] = GetParam();
    core::RegionLayout layout;
    layout.region_size = 1 << 20;
    layout.log_size = 64 << 10;
    layout.num_locks = 8;
    group_ = core::make_backend(backend, cluster_, layout.region_size, 16);
    apps::DocStore::Config dc;
    dc.layout = layout;
    dc.value_size = kValueSize;
    store_ = std::make_unique<TappedDocStore>(*group_, cluster_.server(3), dc);
    if (remote_reads) {
      core::RemoteReader::Options ro;
      ro.policy = core::RemoteReader::Policy::kRoundRobin;
      reader_ = std::make_unique<core::RemoteReader>(
          cluster_.server(3), core::replica_targets(*group_), ro);
      store_->set_remote_reader(reader_.get());
    }
  }

  static std::vector<uint8_t> tagged(uint64_t client, uint64_t n) {
    std::vector<uint8_t> value(kValueSize, static_cast<uint8_t>(n));
    std::memcpy(value.data(), &client, 8);
    std::memcpy(value.data() + 8, &n, 8);
    return value;
  }

  void next_op(uint64_t client, uint64_t n) {
    if (n > kOpsPerClient) {
      ++finished_;
      return;
    }
    const uint64_t key = rng_.next_below(kKeys);
    const sim::Time now = cluster_.loop().now();
    const uint64_t pick = rng_.next_below(10);
    if (pick < 4) {
      const size_t h = history_.invoke(key, /*write=*/true, {client, n}, now);
      store_->update(key, tagged(client, n), [this, client, n, h](bool ok) {
        EXPECT_TRUE(ok);
        history_.respond(h, cluster_.loop().now());
        next_op(client, n + 1);
      });
      return;
    }
    if (pick < 7) {
      const size_t h = history_.invoke(key, /*write=*/false, {}, now);
      store_->read(key, [this, client, n, h](bool ok, std::vector<uint8_t> v) {
        history_.respond(h, cluster_.loop().now(), tag_of(ok, v));
        next_op(client, n + 1);
      });
      return;
    }
    // Read-modify-write: the read half responds, and the write half is
    // invoked, when the read returns. A document never written fails the
    // read, and the write never happens.
    const size_t hr = history_.invoke(key, /*write=*/false, {}, now);
    auto hw = std::make_shared<size_t>(SIZE_MAX);
    store_->tap_next_read([this, key, client, n, hr, hw](
                              bool ok, const std::vector<uint8_t>& v) {
      const sim::Time t = cluster_.loop().now();
      history_.respond(hr, t, tag_of(ok, v));
      if (ok) *hw = history_.invoke(key, /*write=*/true, {client, n}, t);
    });
    store_->read_modify_write(
        key, tagged(client, n), [this, client, n, hw](bool ok) {
          EXPECT_EQ(ok, *hw != SIZE_MAX);
          if (ok) {
            ++rmw_writes_;
            history_.respond(*hw, cluster_.loop().now());
          }
          next_op(client, n + 1);
        });
  }

  core::Cluster cluster_{core::backend_cluster_config()};
  std::unique_ptr<core::BackendGroup> group_;
  std::unique_ptr<TappedDocStore> store_;
  std::unique_ptr<core::RemoteReader> reader_;
  RegisterHistory history_;
  sim::Rng rng_{0x4157};
  uint64_t finished_ = 0;
  uint64_t rmw_writes_ = 0;
};

TEST_P(DocStoreHistoryTest, HotKeyReadsAndUpdatesAreLinearizable) {
  for (uint64_t c = 1; c <= kClients; ++c) next_op(c, 1);
  cluster_.loop().run_until(cluster_.loop().now() + sim::seconds(1));
  ASSERT_EQ(finished_, kClients);
  ASSERT_EQ(history_.size(), kClients * kOpsPerClient + rmw_writes_);
  EXPECT_GT(rmw_writes_, 0u);
  EXPECT_EQ(history_.check(), "");
  if (reader_ != nullptr) {
    EXPECT_GT(reader_->stats().reads_issued, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, DocStoreHistoryTest,
    ::testing::Combine(::testing::ValuesIn(kSingleChainBackends),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<Backend, bool>>& p) {
      const std::string name = core::backend_name(
          ::testing::TestParamInfo<Backend>(std::get<0>(p.param), p.index));
      return name + (std::get<1>(p.param) ? "_ReplicaReads" : "_ClientCopy");
    });

/// One client runs read-modify-writes on one key, each alone. A read
/// reports once it has its value, and it issues its read unlock first, so
/// every later lock op of the client executes behind the decrement
/// (group.h): the write lock never finds the client's own read count.
/// Each read-modify-write costs exactly the gCAS of a lone read (the
/// pair, then the decrement) plus those of a lone write lock (the pair).
class DocStoreRmwTest : public ::testing::TestWithParam<Backend> {
 protected:
  static constexpr uint32_t kValueSize = 64;
  static constexpr uint32_t kLocks = 8;
  static constexpr uint64_t kKey = 5;
  static constexpr uint32_t kStripe = kKey % kLocks;  // DocStore's stripe
  static constexpr int kRounds = 8;

  DocStoreRmwTest() {
    layout_.region_size = 1 << 20;
    layout_.log_size = 64 << 10;
    layout_.num_locks = kLocks;
    apps::DocStore::Config dc;
    dc.layout = layout_;
    dc.value_size = kValueSize;
    store_ = std::make_unique<apps::DocStore>(counted_, cluster_.server(3), dc);
  }

  static std::vector<uint8_t> value(int i) {
    return std::vector<uint8_t>(kValueSize, static_cast<uint8_t>(i));
  }
  void run() {
    cluster_.loop().run_until(cluster_.loop().now() + sim::msec(20));
  }
  uint64_t reader_count(size_t replica) const {
    uint64_t v = ~uint64_t{0};
    group_->replica_load(replica, layout_.reader_offset(kStripe), &v, 8);
    return v;
  }

  core::Cluster cluster_{core::backend_cluster_config()};
  core::RegionLayout layout_;
  std::unique_ptr<core::BackendGroup> group_ =
      core::make_backend(GetParam(), cluster_, 1 << 20, 16);
  core::ForwardingGroup counted_{*group_};
  std::unique_ptr<apps::DocStore> store_;
};

TEST_P(DocStoreRmwTest, WriteLockNeverMeetsItsOwnReadCount) {
  bool seeded = false;
  store_->insert(kKey, value(0), [&](bool ok) { seeded = ok; });
  run();
  ASSERT_TRUE(seeded);

  // DocStore's own read-modify-write: its write runs after the front
  // end's CPU for the write.
  for (int i = 1; i <= kRounds; ++i) {
    const uint64_t before = counted_.gcas_count();
    bool ok = false;
    store_->read_modify_write(kKey, value(i), [&](bool r) { ok = r; });
    run();
    ASSERT_TRUE(ok) << "read_modify_write " << i;
    EXPECT_EQ(counted_.gcas_count() - before, 5u) << "read_modify_write " << i;
  }

  // The closest a caller can follow a read: the write transaction goes
  // out from the read's completion, on the store's own lock manager.
  const apps::SlotTable slots(layout_, 1, kValueSize);  // DocStore's slots
  for (int i = kRounds + 1; i <= 2 * kRounds; ++i) {
    const uint64_t before = counted_.gcas_count();
    uint64_t count_at_report = 0;
    bool committed = false;
    store_->read(kKey, [&](bool ok, std::vector<uint8_t> v) {
      ASSERT_TRUE(ok);
      ASSERT_EQ(v, value(i - 1));
      count_at_report = reader_count(0);
      store_->txns().execute(
          {{slots.db_offset(kKey), slots.encode(kKey, value(i))}}, {kStripe},
          [&](bool c) { committed = c; });
    });
    run();
    ASSERT_TRUE(committed) << "read-modify-write " << i;
    EXPECT_EQ(count_at_report, 1u) << "the read waited for its unlock";
    EXPECT_EQ(counted_.gcas_count() - before, 5u) << "read-modify-write " << i;
  }

  EXPECT_EQ(store_->locks().stats().wr_conflicts, 0u);
  std::vector<uint8_t> last;
  store_->read(kKey,
               [&](bool, std::vector<uint8_t> v) { last = std::move(v); });
  run();
  EXPECT_EQ(last, value(2 * kRounds));
  for (size_t r = 0; r < group_->group_size(); ++r) {
    EXPECT_EQ(reader_count(r), 0u) << "replica " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, DocStoreRmwTest,
                         ::testing::ValuesIn(kSingleChainBackends),
                         core::backend_name);

}  // namespace
}  // namespace hyperloop
