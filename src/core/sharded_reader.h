// Sharded one-sided read datapath (DESIGN.md "Read datapath").
//
// A ShardedReader composes K per-shard RemoteReader pools behind the
// single-reader readv API, routing offsets through the same POD
// ShardRouter as ShardedGroup — identity addressing, so the layers above
// keep their logical offsets and each shard's reader simply serves the
// slices its chain owns. Uniform batches forward untouched to the owning
// shard's reader (which spreads them across that chain's replicas under
// its own policy); batches that span shards are split per shard by the
// router, issued in shard order and rejoined with a pooled scatter-join
// completion, exactly the gWRITEV split/join shape on the write side:
// child completions capture the join slot *index*, the assembled bytes
// live in a per-join scratch that grows to high-water and is reused, and
// the caller sees one ReadDone with the extents concatenated in list
// order.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/remote_reader.h"
#include "core/sharded_group.h"
#include "sim/slot_pool.h"

namespace hyperloop::core {

class ShardedReader {
 public:
  struct Stats {
    uint64_t reads_issued = 0;   ///< logical reads routed
    uint64_t read_bytes = 0;     ///< payload bytes returned to callers
    uint64_t scatter_reads = 0;  ///< batches split across >1 shard
    uint64_t aborted_reads = 0;  ///< joins dropped by stop()
  };

  /// Takes ownership of the per-shard readers. Reader s serves every
  /// offset the router maps to shard s; the router must match the one
  /// partitioning the write-side ShardedGroup.
  ShardedReader(std::vector<std::unique_ptr<RemoteReader>> shards,
                ShardRouter router);
  ~ShardedReader();
  ShardedReader(const ShardedReader&) = delete;
  ShardedReader& operator=(const ShardedReader&) = delete;

  /// Batched scatter read: extents may live on different shards, but no
  /// extent may straddle a routing boundary (same contract as the write
  /// primitives). The completion view is the extents' bytes concatenated
  /// in list order; single-shard batches forward to that shard's reader
  /// untouched.
  void readv(const ReadVec& extents, ReadDone done);

  /// Idempotent teardown: live joins are dropped without their callbacks
  /// firing, then every per-shard reader stops. Destructor calls stop().
  void stop();

  uint32_t shards() const { return static_cast<uint32_t>(shards_.size()); }
  RemoteReader& shard(size_t s) { return *shards_.at(s); }
  const RemoteReader& shard(size_t s) const { return *shards_.at(s); }
  const ShardRouter& router() const { return router_; }
  const Stats& stats() const { return stats_; }

  /// READ fragments issued to replica `i`, summed across shards (the
  /// replica_read_spread signal).
  uint64_t replica_frags(size_t i) const;

 private:
  /// One cross-shard scatter read in flight. Child completions capture
  /// the slot index.
  struct JoinOp {
    ReadVec extents;  ///< the caller's batch
    uint32_t remaining = 0;
    bool live = false;
    std::vector<uint8_t> scratch;  ///< grows to high-water, then reused
    ReadDone done;
  };

  void child_done(uint32_t idx, uint32_t shard, ReadView view);

  std::vector<std::unique_ptr<RemoteReader>> shards_;
  ShardRouter router_;
  sim::SlotPool<JoinOp> join_ops_;
  Stats stats_;
  bool stopped_ = false;
};

}  // namespace hyperloop::core
