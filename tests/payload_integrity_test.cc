// End-to-end content-integrity tests for the zero-copy large-payload
// datapath. Large gWRITEs travel as borrowed (arena-aliased) PayloadBuf
// slices; these tests drive the paths where aliasing could go wrong —
// retransmit replay over a lossy fabric while the source region is being
// overwritten, and crash/restore of the replica NVM — and verify the
// replicated bytes are exact against a shadow model.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "chain_setup.h"
#include "nvm/nvm_device.h"
#include "sim/rng.h"

namespace hyperloop::core {
namespace {

/// Deterministic byte filler (xorshift stream seeded per call).
void fill_bytes(std::vector<uint8_t>& v, uint64_t seed) {
  uint64_t x = seed | 1;
  for (auto& b : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x);
  }
}

class PayloadIntegrityTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr uint64_t kRegion = 1 << 20;

  void build(double loss) {
    Cluster::Config cc;
    cc.num_servers = 4;
    cc.network.loss_probability = loss;
    cc.seed = GetParam();
    cluster_ = std::make_unique<Cluster>(cc);
    group_ = make_chain(
        *cluster_,
        {.region_size = kRegion, .ring_slots = 128, .max_inflight = 16});
    rng_ = std::make_unique<sim::Rng>(GetParam() * 6364136223846793005ull + 1);
  }

  void quiesce(sim::Duration d) {
    cluster_->loop().run_until(cluster_->loop().now() + d);
  }

  /// Each replica's whole region must equal `expect`, byte for byte.
  void expect_replicas_equal(const std::vector<uint8_t>& expect,
                             const char* what) {
    for (size_t r = 0; r < 3; ++r) {
      std::vector<uint8_t> got(kRegion);
      group_->replica_load(r, 0, got.data(),
                           static_cast<uint32_t>(got.size()));
      ASSERT_EQ(got, expect) << what << ": replica " << r << " diverged";
    }
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<HyperLoopGroup> group_;
  std::unique_ptr<sim::Rng> rng_;
};

TEST_P(PayloadIntegrityTest, LossyChainLargePayloadsAreByteExact) {
  // Random 4KB..96KB writes into 8 overlapping 64KB-strided slots over a
  // 3% lossy fabric. Each client_store overwrites source bytes that
  // earlier in-flight ops' borrowed slices still alias, so every
  // retransmit replay exercises copy-on-write materialization: a stale
  // or torn replay would leave a replica differing from the shadow.
  build(/*loss=*/0.03);
  sim::Rng& rng = *rng_;

  const int n = 36;
  int done = 0;
  for (int k = 0; k < n; ++k) {
    const uint64_t off = rng.next_below(8) * (64 << 10);
    const uint32_t len =
        static_cast<uint32_t>(4096 + rng.next_below(92 << 10)) & ~63u;
    const bool flush = rng.chance(0.5);
    std::vector<uint8_t> data(len);
    fill_bytes(data, rng.next_u64());
    group_->client_store(off, data.data(), len);
    group_->gwrite(off, len, flush, [&] { ++done; });
    // Occasionally let the chain drain partway so issues interleave with
    // acks, retransmission timers, and replica-side forwarding.
    if (rng.chance(0.3)) quiesce(sim::usec(rng.next_below(50)));
  }
  quiesce(sim::seconds(10));
  ASSERT_EQ(done, n);
  EXPECT_GT(cluster_->net().packets_dropped(), 0u) << "loss never happened";
  uint64_t retransmits = 0;
  for (size_t s = 0; s < 4; ++s) {
    retransmits += cluster_->server(s).nic().counters().retransmits;
  }
  EXPECT_GT(retransmits, 0u) << "replay path never exercised";

  // Final replica bytes must equal the client region: each byte's last
  // covering gWRITE read the client region at execution time, so any
  // divergence means a replay delivered stale or torn bytes.
  std::vector<uint8_t> expect(kRegion);
  group_->client_load(0, expect.data(), static_cast<uint32_t>(expect.size()));
  expect_replicas_equal(expect, "lossy large-payload stream");
}

TEST_P(PayloadIntegrityTest, CrashRevertsToDurableImageWithoutTearing) {
  // flush=true ops define the durable image; flush=false ops are visible
  // in replica live memory but must vanish wholesale on crash — a torn
  // revert (part old, part new within one op's range) would show up as a
  // mismatch against the byte-exact shadow snapshots.
  build(/*loss=*/0.0);
  sim::Rng& rng = *rng_;

  // Phase 1: flushed writes establish the durable image.
  int done = 0;
  std::vector<uint8_t> durable(kRegion, 0);
  for (int k = 0; k < 12; ++k) {
    const uint64_t off = rng.next_below(10) * (48 << 10);
    const uint32_t len =
        static_cast<uint32_t>(8192 + rng.next_below(72 << 10)) & ~63u;
    std::vector<uint8_t> data(len);
    fill_bytes(data, rng.next_u64());
    group_->client_store(off, data.data(), len);
    std::memcpy(durable.data() + off, data.data(), len);
    group_->gwrite(off, len, /*flush=*/true, [&] { ++done; });
  }
  quiesce(sim::seconds(2));
  ASSERT_EQ(done, 12);

  // Phase 2: unflushed overwrites of the same slots. They must land in
  // live replica memory (acked), but nothing persists them.
  std::vector<uint8_t> live = durable;
  for (int k = 0; k < 10; ++k) {
    const uint64_t off = rng.next_below(10) * (48 << 10);
    const uint32_t len =
        static_cast<uint32_t>(8192 + rng.next_below(72 << 10)) & ~63u;
    std::vector<uint8_t> data(len);
    fill_bytes(data, rng.next_u64());
    group_->client_store(off, data.data(), len);
    std::memcpy(live.data() + off, data.data(), len);
    group_->gwrite(off, len, /*flush=*/false, [&] { ++done; });
  }
  quiesce(sim::seconds(2));
  ASSERT_EQ(done, 22);
  expect_replicas_equal(live, "pre-crash live image");

  // Crash every replica: live memory reverts to the durable image —
  // all-or-nothing per byte range, no mixing of phase-2 bytes.
  for (size_t r = 0; r < 3; ++r) group_->replica_server(r).nvm().crash();
  expect_replicas_equal(durable, "post-crash durable image");

  // Phase 3: the group keeps working after the crash — new flushed
  // writes replicate and persist on top of the reverted image.
  for (int k = 0; k < 6; ++k) {
    const uint64_t off = rng.next_below(10) * (48 << 10);
    const uint32_t len =
        static_cast<uint32_t>(8192 + rng.next_below(72 << 10)) & ~63u;
    std::vector<uint8_t> data(len);
    fill_bytes(data, rng.next_u64());
    group_->client_store(off, data.data(), len);
    std::memcpy(durable.data() + off, data.data(), len);
    group_->gwrite(off, len, /*flush=*/true, [&] { ++done; });
  }
  quiesce(sim::seconds(2));
  ASSERT_EQ(done, 28);
  for (size_t r = 0; r < 3; ++r) group_->replica_server(r).nvm().crash();
  expect_replicas_equal(durable, "post-recovery durable image");
}

INSTANTIATE_TEST_SUITE_P(Seeds, PayloadIntegrityTest,
                         ::testing::Values(11, 29, 47));

}  // namespace
}  // namespace hyperloop::core
