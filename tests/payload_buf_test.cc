// PayloadBuf unit tests: refcount lifetime, pool return ordering, and the
// borrow (zero-copy arena adoption) copy-on-write discipline.
#include "rdma/payload_buf.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "rdma/memory.h"

namespace hyperloop::rdma {
namespace {

TEST(PayloadBuf, CopySharesBlockAndTracksRefcount) {
  PayloadBuf a;
  a.resize(256);
  for (size_t i = 0; i < 256; ++i) a.data()[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(a.ref_count(), 1u);

  PayloadBuf b = a;
  EXPECT_TRUE(a.shares_with(b));
  EXPECT_EQ(a.ref_count(), 2u);
  EXPECT_EQ(b.data(), a.data()) << "copy must alias, not duplicate, bytes";

  {
    PayloadBuf c = b;
    EXPECT_EQ(a.ref_count(), 3u);
  }
  EXPECT_EQ(a.ref_count(), 2u);

  b.reset();
  EXPECT_EQ(a.ref_count(), 1u);
  EXPECT_EQ(a.data()[255], 255u);
}

// Blocks released earlier in the process may sit on the free lists, so
// the pool is checked by deltas.
TEST(PayloadBuf, PoolReturnsBlocksInLifoOrder) {
  PayloadBuf a, b;
  a.resize(4096);
  b.resize(4096);
  const uint8_t* pa = a.data();
  const uint8_t* pb = b.data();
  ASSERT_NE(pa, pb);
  const size_t free_before = PayloadBuf::pool_free_blocks();

  // Release a then b: the free list is LIFO, so the next same-class
  // acquire must hand back b's block, then a's.
  a.reset();
  b.reset();
  EXPECT_EQ(PayloadBuf::pool_free_blocks() - free_before, 2u);

  const uint64_t hits_before = PayloadBuf::pool_hits();
  PayloadBuf c, d;
  c.resize(4096);
  EXPECT_EQ(c.data(), pb) << "most recently released block is reused first";
  d.resize(4096);
  EXPECT_EQ(d.data(), pa);
  EXPECT_EQ(PayloadBuf::pool_hits() - hits_before, 2u)
      << "both acquisitions must be pool hits, not allocations";
  EXPECT_EQ(PayloadBuf::pool_free_blocks(), free_before);
}

TEST(PayloadBuf, BorrowAliasesArenaWithoutCopying) {
  HostMemory mem(1 << 20);
  const Addr addr = mem.alloc(4096);
  std::vector<uint8_t> src(4096);
  for (size_t i = 0; i < src.size(); ++i) src[i] = static_cast<uint8_t>(i * 5);
  mem.write(addr, src.data(), src.size());

  const uint64_t copied_before = PayloadBuf::bytes_copied();
  PayloadBuf b = mem.borrow_payload(addr, 4096);
  EXPECT_TRUE(b.borrowed());
  EXPECT_EQ(mem.live_borrows(), 1u);
  EXPECT_EQ(b.data(), mem.view(addr, 4096)) << "borrow must alias the arena";
  EXPECT_EQ(PayloadBuf::bytes_copied(), copied_before)
      << "borrowing moves no bytes";

  // Releasing an untouched borrow never materializes.
  b.reset();
  EXPECT_EQ(mem.live_borrows(), 0u);
  EXPECT_EQ(PayloadBuf::bytes_copied(), copied_before);
}

TEST(PayloadBuf, BorrowMaterializesBeforeOverlappingStore) {
  HostMemory mem(1 << 20);
  const Addr addr = mem.alloc(4096);
  std::vector<uint8_t> src(4096, 0xAB);
  mem.write(addr, src.data(), src.size());

  PayloadBuf b = mem.borrow_payload(addr, 4096);
  PayloadBuf s = b;  // copies share the borrow state

  // Overwrite part of the borrowed range: copy-on-write must run first,
  // so every sharer keeps the pre-store bytes.
  const uint64_t copied_before = PayloadBuf::bytes_copied();
  std::vector<uint8_t> clobber(64, 0xCD);
  mem.write(addr + 1100, clobber.data(), clobber.size());
  EXPECT_FALSE(b.borrowed());
  EXPECT_EQ(mem.live_borrows(), 0u);
  EXPECT_EQ(PayloadBuf::bytes_copied() - copied_before, 4096u)
      << "materialization copies the whole borrowed block once";

  for (size_t i = 1024; i < 1536; ++i) {
    ASSERT_EQ(s.data()[i], 0xAB) << "sharer observed post-store bytes";
  }
  // The arena itself has the new bytes.
  EXPECT_EQ(mem.view(addr + 1100, 1)[0], 0xCD);

  // A second store to the same range must not re-materialize.
  const uint64_t copied_mid = PayloadBuf::bytes_copied();
  mem.write(addr + 1100, clobber.data(), clobber.size());
  EXPECT_EQ(PayloadBuf::bytes_copied(), copied_mid);
}

TEST(PayloadBuf, NonOverlappingStoreLeavesBorrowAliased) {
  HostMemory mem(1 << 20);
  const Addr addr = mem.alloc(4096);
  const Addr other = mem.alloc(4096);
  std::vector<uint8_t> src(4096, 0x11);
  mem.write(addr, src.data(), src.size());

  PayloadBuf b = mem.borrow_payload(addr, 4096);
  std::vector<uint8_t> unrelated(4096, 0x22);
  mem.write(other, unrelated.data(), unrelated.size());
  EXPECT_TRUE(b.borrowed()) << "disjoint store must not materialize";
  EXPECT_EQ(mem.live_borrows(), 1u);
}

TEST(PayloadBuf, ArenaTeardownMaterializesLiveBorrows) {
  PayloadBuf b;
  {
    HostMemory mem(1 << 20);
    const Addr addr = mem.alloc(2048);
    std::vector<uint8_t> src(2048);
    for (size_t i = 0; i < src.size(); ++i) {
      src[i] = static_cast<uint8_t>(i + 9);
    }
    mem.write(addr, src.data(), src.size());
    b = mem.borrow_payload(addr, 2048);
    EXPECT_TRUE(b.borrowed());
  }  // arena destroyed while the borrow is live
  EXPECT_FALSE(b.borrowed());
  for (size_t i = 0; i < 2048; ++i) {
    ASSERT_EQ(b.data()[i], static_cast<uint8_t>(i + 9))
        << "teardown must preserve the borrowed bytes";
  }
}

}  // namespace
}  // namespace hyperloop::rdma
