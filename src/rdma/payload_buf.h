// Pooled, refcounted packet payload buffers.
//
// Every simulated RDMA hop used to copy a std::vector<uint8_t> payload:
// the NIC gathered into a fresh vector, Network::transmit copied it into
// the delivery closure, the RC transport kept one copy in the unacked
// window and another in the responder's duplicate-response cache. With a
// 3-replica chain that is ~4 allocations and ~4 full copies per hop.
//
// PayloadBuf replaces those with one refcounted block drawn from a
// size-class pool: copying a Packet bumps a refcount instead of copying
// bytes, and releasing the last reference returns the block to a free
// list instead of the allocator. The simulation is single-threaded (one
// EventLoop drives all NICs), so refcounts and pool free lists are plain
// integers/pointers — no atomics.
//
// borrow(...) keeps large payloads single-copy end to end: it wraps an
// existing HostMemory extent without copying. The block points at the
// arena bytes and registers itself with the arena's BorrowRegistry.
// Before any overlapping arena mutation (or arena teardown) the registry
// *materializes* the block — one memcpy of the old bytes into the
// block's own pool storage (acquired up front, so materialization never
// allocates). Until then every sharer — the in-flight packet, the
// retransmit window — reads the arena directly. Chain-forwarded WRITEs
// and READ responses borrow; a READ response is never cached, so its
// borrow lives only while the response is in flight.
//
// A handle is one pointer: the block carries the payload's size.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hyperloop::rdma {

/// A shared, pooled byte buffer. Value semantics: copies share the block
/// (refcount), destruction releases it back to the pool. Writers must
/// fill the buffer before sharing it; after that, treat contents as
/// immutable (all sharers observe the same block).
class PayloadBuf {
  struct Block;

 public:
  class BorrowRegistry;

  PayloadBuf() = default;
  PayloadBuf(const PayloadBuf& o) : b_(o.b_) {
    if (b_ != nullptr) ++b_->refs;
  }
  PayloadBuf(PayloadBuf&& o) noexcept : b_(o.b_) { o.b_ = nullptr; }
  PayloadBuf& operator=(const PayloadBuf& o) {
    if (o.b_ != nullptr) ++o.b_->refs;
    release();
    b_ = o.b_;
    return *this;
  }
  PayloadBuf& operator=(PayloadBuf&& o) noexcept {
    if (this != &o) {
      release();
      b_ = o.b_;
      o.b_ = nullptr;
    }
    return *this;
  }
  ~PayloadBuf() { release(); }

  /// Detaches from any shared block and acquires a fresh, zero-filled
  /// exclusive block of `n` bytes (n == 0 releases to empty).
  void resize(size_t n);

  /// Like resize() but leaves the bytes uninitialized — for gather paths
  /// that overwrite the whole buffer immediately.
  void resize_uninit(size_t n);

  /// Drops this reference (block returns to the pool when unshared).
  void reset() { release(); }

  /// Wraps `len` bytes of a HostMemory arena (`src` = live pointer,
  /// `addr` = arena address) without copying. Pool storage for `len`
  /// bytes is acquired now so the later copy-on-write materialization
  /// is a pure memcpy. The registry materializes the block before any
  /// overlapping arena store and on arena teardown, so sharers never
  /// observe torn or future bytes.
  static PayloadBuf borrow(BorrowRegistry& reg, const uint8_t* src,
                           uint64_t addr, size_t len);

  uint8_t* data() {
    // Borrowed blocks alias arena bytes that only the arena may mutate;
    // this non-const accessor exists for the fill-after-resize pattern,
    // which never runs on a borrowed block.
    return b_ == nullptr ? nullptr : const_cast<uint8_t*>(block_bytes(b_));
  }
  const uint8_t* data() const {
    return b_ == nullptr ? nullptr : block_bytes(b_);
  }
  size_t size() const { return b_ == nullptr ? 0 : b_->size; }
  bool empty() const { return size() == 0; }

  /// True when both handles reference the same underlying block.
  bool shares_with(const PayloadBuf& o) const {
    return b_ != nullptr && b_ == o.b_;
  }

  /// Number of handles sharing this block (0 for an empty handle).
  uint32_t ref_count() const { return b_ == nullptr ? 0 : b_->refs; }

  /// True while the block still aliases arena bytes (not yet
  /// materialized into its own storage).
  bool borrowed() const { return b_ != nullptr && b_->ext != nullptr; }

  // --- pool introspection (perf gates / tests) ---
  /// Blocks ever obtained from the allocator (pool misses).
  static uint64_t pool_misses();
  /// Blocks handed out from a free list (pool hits).
  static uint64_t pool_hits();
  /// Blocks currently parked on free lists.
  static size_t pool_free_blocks();

  // --- copy discipline (perf gates / tests) ---
  /// Global count of payload bytes memcpy'd between HostMemory and a
  /// payload block on the data plane: WRITE/READ gathers, sink DMA-out
  /// writes, response landings, and borrow materializations. Charged by
  /// Nic/HostMemory via add_bytes_copied; SEND scatter/gather (control
  /// plane descriptors) is excluded. Tests gate on deltas of this.
  static uint64_t bytes_copied();
  static void add_bytes_copied(uint64_t n);

  /// Tracks the borrowed blocks aliasing one HostMemory arena, with a
  /// monotone bounding box for O(1) miss rejection. Owned by the arena;
  /// declared after the byte storage so its destructor (materialize_all)
  /// runs while the arena bytes are still valid.
  class BorrowRegistry {
   public:
    BorrowRegistry() = default;
    BorrowRegistry(const BorrowRegistry&) = delete;
    BorrowRegistry& operator=(const BorrowRegistry&) = delete;
    ~BorrowRegistry() { materialize_all(); }

    /// Copies every borrow overlapping [addr, addr+len) into its own
    /// storage. Call BEFORE mutating the arena range so the borrows
    /// keep the pre-mutation bytes. The no-borrow / outside-the-box
    /// reject stays inline: this sits on every HostMemory store, and
    /// in steady state the registry is almost always empty.
    void materialize_range(uint64_t addr, size_t len) {
      if (head_ == nullptr || addr >= hi_ || addr + len <= lo_) return;
      materialize_overlapping(addr, len);
    }
    /// Materializes everything (arena teardown / crash restore).
    void materialize_all();

    bool empty() const { return head_ == nullptr; }
    /// Live borrowed blocks (tests).
    size_t live() const;

   private:
    friend class PayloadBuf;
    void materialize_overlapping(uint64_t addr, size_t len);
    Block* head_ = nullptr;
    // Bounding box over live borrows; grows monotonically, resets when
    // the list drains. A store outside [lo_, hi_) cannot overlap any
    // borrow, which keeps the common HostMemory::write test O(1).
    uint64_t lo_ = ~uint64_t{0};
    uint64_t hi_ = 0;
  };

 private:
  struct Block {
    uint32_t refs;
    uint32_t size;
    uint8_t size_class;
    Block* next_free;
    // Borrow state: while `ext` is non-null the payload bytes live in a
    // HostMemory arena at `ext` (arena address `ext_addr`) and the block
    // sits on its registry's intrusive list.
    const uint8_t* ext;
    uint64_t ext_addr;
    Block* borrow_next;
    Block* borrow_prev;
    BorrowRegistry* registry;
  };
  // Payload bytes: the arena extent while borrowed, own storage after.
  static const uint8_t* block_bytes(const Block* b) {
    return b->ext != nullptr ? b->ext
                             : reinterpret_cast<const uint8_t*>(b + 1);
  }
  static uint8_t* block_data(Block* b) {
    return reinterpret_cast<uint8_t*>(b + 1);
  }

  static Block* acquire(size_t n);
  static void release_block(Block* b);
  /// Copies the arena bytes into the block's own storage and unlinks it
  /// from the registry (charged to bytes_copied).
  static void materialize(Block* b);
  static void unlink_borrow(Block* b);

  void release() {
    if (b_ != nullptr) {
      release_block(b_);
      b_ = nullptr;
    }
  }

  Block* b_ = nullptr;
};

static_assert(sizeof(PayloadBuf) == sizeof(void*));

}  // namespace hyperloop::rdma
