// Sharded multi-chain replication (DESIGN.md "Sharded datapath").
//
// A ShardedGroup composes K independent ReplicationGroup chains behind
// the single-group primitive API: a ShardRouter maps every region offset
// to its owning chain, and each primitive rides that chain's own QPs,
// credit window and in-flight tracking — K chains turn the per-chain
// op/s ceiling into an additive budget, because nothing is shared between
// shards past the router (no common window, no common FIFO, distinct
// simulated NICs when the backends are placed on them).
//
// Addressing is *identity*: offsets are never rebased, every child chain
// exposes the full logical region and simply never carries bytes outside
// its shard. That keeps the layers above (WAL slices, lock tables,
// kvstore/docstore layouts) oblivious — a based RegionLayout plus a range
// router is all the partitioning there is.
//
// Router contract: a primitive's byte range must not cross a routing
// boundary (asserted in debug builds). Routing by range makes that
// natural: whole slices map to one shard. Cross-shard gWRITEV batches are
// the exception: they are split per shard, issued in shard order and
// rejoined with a pooled scatter-join completion, so callers see one
// done for the whole batch.
//
// Hot-path discipline matches the other groups: sim::SmallFn completions,
// pooled join slots indexed by small integers, zero steady-state
// allocations (gated by tools/lint_hot_path.sh and the alloc test).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/group.h"
#include "sim/slot_pool.h"

namespace hyperloop::core {

/// Maps region offsets to shards by range: shard s owns the contiguous
/// `span` bytes from s * span, and offsets past shards * span clamp to
/// the last shard. A plain value type, cheap to copy. ShardedGroup and
/// ShardedReader split a batch the same way: shards_touched() says how
/// many children it has, owned_by() gives each one its extents.
struct ShardRouter {
  uint32_t shards = 1;
  uint64_t span = 0;

  static ShardRouter range(uint32_t shards, uint64_t span) {
    assert(shards >= 1 && shards <= 64 && "shards_touched keeps a bitmask");
    ShardRouter r;
    r.shards = shards;
    r.span = span;
    return r;
  }

  uint32_t shard_of(uint64_t offset) const {
    const uint64_t s = offset / span;
    return s >= shards ? shards - 1 : static_cast<uint32_t>(s);
  }

  /// The shard that owns [offset, offset + len). A primitive's range must
  /// not cross a routing boundary (asserted).
  uint32_t route(uint64_t offset, uint32_t len) const {
    const uint32_t s = shard_of(offset);
    assert((len <= 1 || shard_of(offset + len - 1) == s) &&
           "range crosses a shard routing boundary");
    (void)len;
    return s;
  }

  /// First offset after `offset` where the owning shard may change.
  /// Local bulk accessors split ranges at these boundaries.
  uint64_t next_boundary(uint64_t offset) const {
    return (offset / span + 1) * span;
  }

  /// How many shards own an extent of `v` (1: the batch is uniform).
  template <size_t N>
  uint32_t shards_touched(const ExtentList<N>& v) const {
    uint64_t seen = 0;
    for (const Extent& e : v) seen |= uint64_t{1} << route(e.offset, e.len);
    return static_cast<uint32_t>(std::popcount(seen));
  }

  /// The extents of `v` that shard `s` owns, in list order.
  template <size_t N>
  ExtentList<N> owned_by(uint32_t s, const ExtentList<N>& v) const {
    ExtentList<N> out;
    for (const Extent& e : v) {
      if (shard_of(e.offset) == s) out.push_back(e);
    }
    return out;
  }
};

class ShardedGroup final : public ReplicationGroup {
 public:
  struct ShardStats {
    uint64_t ops = 0;    ///< primitives routed to this shard
    uint64_t bytes = 0;  ///< payload bytes routed to this shard
  };
  struct Stats {
    uint64_t split_gwritevs = 0;  ///< cross-shard batches split/rejoined
    uint64_t flush_broadcasts = 0;
  };

  /// Takes ownership of the child chains. Every child must expose the
  /// same group_size and a region at least as large as the logical
  /// region (identity addressing).
  ShardedGroup(std::vector<std::unique_ptr<ReplicationGroup>> shards,
               ShardRouter router);
  ~ShardedGroup() override;

  size_t group_size() const override;
  uint64_t region_size() const override { return region_size_; }
  void gwrite(uint64_t offset, uint32_t len, bool flush, Done done) override;
  void gwritev(const ExtentVec& extents, bool flush, Done done) override;
  void gmemcpy(uint64_t src_offset, uint64_t dst_offset, uint32_t len,
               bool flush, Done done) override;
  void gcas(uint64_t offset, uint64_t expected, uint64_t desired,
            ExecMap exec_map, CasDone done) override;
  void gflush(Done done) override;
  void stop() override;
  void client_store(uint64_t offset, const void* src, uint32_t len) override;
  void client_load(uint64_t offset, void* dst, uint32_t len) const override;
  void replica_load(size_t i, uint64_t offset, void* dst,
                    uint32_t len) const override;

  uint32_t shards() const { return static_cast<uint32_t>(shards_.size()); }
  ReplicationGroup& shard(size_t s) { return *shards_[s]; }
  const ReplicationGroup& shard(size_t s) const { return *shards_[s]; }
  const ShardRouter& router() const { return router_; }
  const ShardStats& shard_stats(size_t s) const { return shard_stats_[s]; }
  const Stats& stats() const { return stats_; }

 private:
  /// One cross-shard scatter-join in flight: the original done fires when
  /// every per-shard sub-op has completed. Child completions capture the
  /// slot index.
  struct JoinOp {
    uint32_t remaining = 0;
    bool live = false;
    Done done;
  };

  void forward_gwritev(uint32_t s, const ExtentVec& extents, bool flush,
                       Done done);
  void finish_join(uint32_t idx);

  std::vector<std::unique_ptr<ReplicationGroup>> shards_;
  ShardRouter router_;
  uint64_t region_size_ = 0;
  sim::SlotPool<JoinOp> join_ops_;
  std::vector<ShardStats> shard_stats_;
  Stats stats_;
};

}  // namespace hyperloop::core
