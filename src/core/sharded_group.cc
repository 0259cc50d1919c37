#include "core/sharded_group.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hyperloop::core {

namespace {

// Splits [offset, offset + len) at routing boundaries and calls
// fn(shard, segment offset, bytes before the segment, segment length).
template <typename Fn>
void for_each_segment(const ShardRouter& r, uint64_t offset, uint32_t len,
                      Fn&& fn) {
  for (uint32_t pos = 0; pos < len;) {
    const uint64_t off = offset + pos;
    const auto n = static_cast<uint32_t>(
        std::min<uint64_t>(r.next_boundary(off) - off, len - pos));
    fn(r.shard_of(off), off, pos, n);
    pos += n;
  }
}

}  // namespace

ShardedGroup::ShardedGroup(
    std::vector<std::unique_ptr<ReplicationGroup>> shards, ShardRouter router)
    : shards_(std::move(shards)), router_(router) {
  assert(!shards_.empty());
  assert(router_.shards == shards_.size() &&
         "router must address exactly the owned chains");
  region_size_ = shards_[0]->region_size();
  for (const auto& s : shards_) {
    assert(s != nullptr);
    assert(s->group_size() == shards_[0]->group_size());
    // Identity addressing: every chain must be able to hold any logical
    // offset, so the logical region is the smallest child region.
    if (s->region_size() < region_size_) region_size_ = s->region_size();
  }
  shard_stats_.resize(shards_.size());
}

ShardedGroup::~ShardedGroup() { stop(); }

size_t ShardedGroup::group_size() const { return shards_[0]->group_size(); }

void ShardedGroup::gwrite(uint64_t offset, uint32_t len, bool flush,
                          Done done) {
  if (stopped_) return;  // children are stopped too: drop, don't forward
  const uint32_t s = router_.route(offset, len);
  ShardStats& st = shard_stats_[s];
  ++st.ops;
  st.bytes += len;
  shards_[s]->gwrite(offset, len, flush, std::move(done));
}

void ShardedGroup::gwritev(const ExtentVec& extents, bool flush, Done done) {
  if (stopped_) return;
  assert(!extents.empty());
  const uint32_t touched = router_.shards_touched(extents);
  // Fast path: the whole batch lives on one chain — hand it through
  // untouched (one traversal, original completion, no join slot).
  if (touched == 1) {
    forward_gwritev(router_.shard_of(extents[0].offset), extents, flush,
                    std::move(done));
    return;
  }

  // Split: one sub-batch per touched shard, issued in shard order, its
  // extents in list order (ordering across shards is not preserved —
  // co-ordering callers must keep ordered extents on one shard, which
  // the WAL's per-slice layout does by construction).
  ++stats_.split_gwritevs;
  const uint32_t idx = join_ops_.claim();
  JoinOp& op = join_ops_[idx];
  op.remaining = touched;
  op.live = true;
  op.done = std::move(done);
  for (uint32_t s = 0; s < shards(); ++s) {
    const ExtentVec sub = router_.owned_by(s, extents);
    if (sub.empty()) continue;
    forward_gwritev(s, sub, flush, [this, idx] {
      if (--join_ops_[idx].remaining == 0) finish_join(idx);
    });
  }
}

void ShardedGroup::forward_gwritev(uint32_t s, const ExtentVec& extents,
                                   bool flush, Done done) {
  ShardStats& st = shard_stats_[s];
  ++st.ops;
  st.bytes += extents.total_len();
  shards_[s]->gwritev(extents, flush, std::move(done));
}

void ShardedGroup::gmemcpy(uint64_t src_offset, uint64_t dst_offset,
                           uint32_t len, bool flush, Done done) {
  if (stopped_) return;
  const uint32_t s = router_.route(src_offset, len);
  assert(router_.route(dst_offset, len) == s &&
         "gmemcpy src and dst must be co-located on one shard");
  ShardStats& st = shard_stats_[s];
  ++st.ops;
  st.bytes += len;
  shards_[s]->gmemcpy(src_offset, dst_offset, len, flush, std::move(done));
}

void ShardedGroup::gcas(uint64_t offset, uint64_t expected, uint64_t desired,
                        ExecMap exec_map, CasDone done) {
  if (stopped_) return;
  const uint32_t s = router_.route(offset, 8);
  ++shard_stats_[s].ops;
  shards_[s]->gcas(offset, expected, desired, exec_map, std::move(done));
}

void ShardedGroup::gflush(Done done) {
  if (stopped_) return;
  // A group-wide barrier must cover every chain: broadcast and rejoin.
  ++stats_.flush_broadcasts;
  const uint32_t idx = join_ops_.claim();
  JoinOp& op = join_ops_[idx];
  op.remaining = shards();
  op.live = true;
  op.done = std::move(done);
  for (auto& s : shards_) {
    ++shard_stats_[&s - shards_.data()].ops;
    s->gflush([this, idx] {
      if (--join_ops_[idx].remaining == 0) finish_join(idx);
    });
  }
}

void ShardedGroup::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& s : shards_) {
    s->stop();
    aborted_ops_ += s->aborted_ops();
  }
  // Joins whose sub-ops were dropped by a child's stop() can never fire.
  for (JoinOp& op : join_ops_) {
    if (!op.live) continue;
    op.live = false;
    op.done.reset();
    ++aborted_ops_;
  }
}

void ShardedGroup::client_store(uint64_t offset, const void* src,
                                uint32_t len) {
  // Local accessors accept ranges spanning shards: each segment goes to
  // its owner's copy.
  const auto* p = static_cast<const uint8_t*>(src);
  for_each_segment(router_, offset, len,
                   [&](uint32_t s, uint64_t off, uint32_t pos, uint32_t n) {
                     shards_[s]->client_store(off, p + pos, n);
                   });
}

void ShardedGroup::client_load(uint64_t offset, void* dst,
                               uint32_t len) const {
  auto* p = static_cast<uint8_t*>(dst);
  for_each_segment(router_, offset, len,
                   [&](uint32_t s, uint64_t off, uint32_t pos, uint32_t n) {
                     shards_[s]->client_load(off, p + pos, n);
                   });
}

void ShardedGroup::replica_load(size_t i, uint64_t offset, void* dst,
                                uint32_t len) const {
  auto* p = static_cast<uint8_t*>(dst);
  for_each_segment(router_, offset, len,
                   [&](uint32_t s, uint64_t off, uint32_t pos, uint32_t n) {
                     shards_[s]->replica_load(i, off, p + pos, n);
                   });
}

void ShardedGroup::finish_join(uint32_t idx) {
  JoinOp& op = join_ops_[idx];
  Done done = std::move(op.done);
  op.live = false;
  join_ops_.release(idx);
  if (done) done();
}

}  // namespace hyperloop::core
