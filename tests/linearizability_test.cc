// The register-history checker (linearizability.h) on hand-made
// histories, then on DocStore: concurrent clients on a few hot keys, on
// every single-chain backend, over both read paths (the client's copy and
// one-sided reads from chain replicas).
#include "linearizability.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <tuple>

#include "apps/docstore/docstore.h"
#include "backends.h"
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

/// Closed-loop clients issue reads and updates on a few hot keys. Every
/// update stores a value whose first 16 bytes are its (client, op) tag, so
/// each read names the update it observed.
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
    store_ = std::make_unique<apps::DocStore>(*group_, cluster_.server(3), dc);
    if (remote_reads) {
      core::RemoteReader::Options ro;
      ro.policy = core::RemoteReader::Policy::kRoundRobin;
      reader_ = std::make_unique<core::RemoteReader>(
          cluster_.server(3), core::replica_targets(*group_), ro);
      store_->set_remote_reader(reader_.get());
    }
  }

  void next_op(uint64_t client, uint64_t n) {
    if (n > kOpsPerClient) {
      ++finished_;
      return;
    }
    const uint64_t key = rng_.next_below(kKeys);
    const sim::Time now = cluster_.loop().now();
    if (rng_.chance(0.5)) {
      std::vector<uint8_t> value(kValueSize, static_cast<uint8_t>(n));
      std::memcpy(value.data(), &client, 8);
      std::memcpy(value.data() + 8, &n, 8);
      const size_t h = history_.invoke(key, /*write=*/true, {client, n}, now);
      store_->update(key, std::move(value), [this, client, n, h](bool ok) {
        EXPECT_TRUE(ok);
        history_.respond(h, cluster_.loop().now());
        next_op(client, n + 1);
      });
      return;
    }
    const size_t h = history_.invoke(key, /*write=*/false, {}, now);
    store_->read(key, [this, client, n, h](bool ok, std::vector<uint8_t> v) {
      Tag seen{};  // a document never written holds the initial value
      if (ok && v.size() >= 16) {
        std::memcpy(&seen.first, v.data(), 8);
        std::memcpy(&seen.second, v.data() + 8, 8);
      }
      history_.respond(h, cluster_.loop().now(), seen);
      next_op(client, n + 1);
    });
  }

  core::Cluster cluster_{core::backend_cluster_config()};
  std::unique_ptr<core::BackendGroup> group_;
  std::unique_ptr<apps::DocStore> store_;
  std::unique_ptr<core::RemoteReader> reader_;
  RegisterHistory history_;
  sim::Rng rng_{0x4157};
  uint64_t finished_ = 0;
};

TEST_P(DocStoreHistoryTest, HotKeyReadsAndUpdatesAreLinearizable) {
  for (uint64_t c = 1; c <= kClients; ++c) next_op(c, 1);
  cluster_.loop().run_until(cluster_.loop().now() + sim::seconds(1));
  ASSERT_EQ(finished_, kClients);
  ASSERT_EQ(history_.size(), kClients * kOpsPerClient);
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

}  // namespace
}  // namespace hyperloop
