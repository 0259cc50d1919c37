#include "core/sharded_group.h"

#include <cassert>
#include <utility>

namespace hyperloop::core {

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

uint32_t ShardedGroup::route(uint64_t offset, uint32_t len) const {
  const uint32_t s = router_.shard_of(offset);
  assert((len <= 1 || router_.shard_of(offset + len - 1) == s) &&
         "primitive range crosses a shard routing boundary");
  (void)len;
  return s;
}

void ShardedGroup::gwrite(uint64_t offset, uint32_t len, bool flush,
                          Done done) {
  if (stopped_) return;  // children are stopped too: drop, don't forward
  const uint32_t s = route(offset, len);
  ShardStats& st = shard_stats_[s];
  ++st.ops;
  st.bytes += len;
  shards_[s]->gwrite(offset, len, flush, std::move(done));
}

void ShardedGroup::gwritev(const ExtentVec& extents, bool flush, Done done) {
  if (stopped_) return;
  assert(!extents.empty());
  // Fast path: the whole batch lives on one chain — hand it through
  // untouched (one traversal, original completion, no join slot).
  const uint32_t first = route(extents[0].offset, extents[0].len);
  bool uniform = true;
  for (size_t i = 1; i < extents.size(); ++i) {
    if (route(extents[i].offset, extents[i].len) != first) {
      uniform = false;
      break;
    }
  }
  if (uniform) {
    ShardStats& st = shard_stats_[first];
    ++st.ops;
    for (const Extent& e : extents) st.bytes += e.len;
    shards_[first]->gwritev(extents, flush, std::move(done));
    return;
  }

  // Split: one sub-batch per touched shard, extents keeping their list
  // order within each sub-batch (ordering across shards is not
  // preserved — co-ordering callers must keep ordered extents on one
  // shard, which the WAL's per-slice layout does by construction).
  uint32_t sub_shard[ExtentVec::kCapacity];
  ExtentVec sub[ExtentVec::kCapacity];
  uint32_t nsub = 0;
  for (const Extent& e : extents) {
    const uint32_t s = route(e.offset, e.len);
    uint32_t j = 0;
    while (j < nsub && sub_shard[j] != s) ++j;
    if (j == nsub) {
      sub_shard[nsub] = s;
      sub[nsub].clear();
      ++nsub;
    }
    sub[j].push_back(e);
  }

  ++stats_.split_gwritevs;
  const uint32_t idx = join_ops_.claim();
  JoinOp& op = join_ops_[idx];
  op.remaining = nsub;
  op.live = true;
  op.done = std::move(done);
  for (uint32_t j = 0; j < nsub; ++j) {
    const uint32_t s = sub_shard[j];
    ShardStats& st = shard_stats_[s];
    ++st.ops;
    for (const Extent& e : sub[j]) st.bytes += e.len;
    shards_[s]->gwritev(sub[j], flush, [this, idx] {
      if (--join_ops_[idx].remaining == 0) finish_join(idx);
    });
  }
}

void ShardedGroup::gmemcpy(uint64_t src_offset, uint64_t dst_offset,
                           uint32_t len, bool flush, Done done) {
  if (stopped_) return;
  const uint32_t s = route(src_offset, len);
  assert(route(dst_offset, len) == s &&
         "gmemcpy src and dst must be co-located on one shard");
  ShardStats& st = shard_stats_[s];
  ++st.ops;
  st.bytes += len;
  shards_[s]->gmemcpy(src_offset, dst_offset, len, flush, std::move(done));
}

void ShardedGroup::gcas(uint64_t offset, uint64_t expected, uint64_t desired,
                        ExecMap exec_map, CasDone done) {
  if (stopped_) return;
  const uint32_t s = route(offset, 8);
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
  // Local accessors accept ranges spanning shards: split at routing
  // boundaries so each whole segment lands in its owner's client region.
  const auto* p = static_cast<const uint8_t*>(src);
  uint64_t off = offset;
  uint32_t left = len;
  while (left > 0) {
    const uint64_t bound = router_.next_boundary(off);
    const uint32_t n = bound - off < left
                           ? static_cast<uint32_t>(bound - off)
                           : left;
    shards_[router_.shard_of(off)]->client_store(off, p, n);
    p += n;
    off += n;
    left -= n;
  }
}

void ShardedGroup::client_load(uint64_t offset, void* dst,
                               uint32_t len) const {
  auto* p = static_cast<uint8_t*>(dst);
  uint64_t off = offset;
  uint32_t left = len;
  while (left > 0) {
    const uint64_t bound = router_.next_boundary(off);
    const uint32_t n = bound - off < left
                           ? static_cast<uint32_t>(bound - off)
                           : left;
    shards_[router_.shard_of(off)]->client_load(off, p, n);
    p += n;
    off += n;
    left -= n;
  }
}

void ShardedGroup::replica_load(size_t i, uint64_t offset, void* dst,
                                uint32_t len) const {
  auto* p = static_cast<uint8_t*>(dst);
  uint64_t off = offset;
  uint32_t left = len;
  while (left > 0) {
    const uint64_t bound = router_.next_boundary(off);
    const uint32_t n = bound - off < left
                           ? static_cast<uint32_t>(bound - off)
                           : left;
    shards_[router_.shard_of(off)]->replica_load(i, off, p, n);
    p += n;
    off += n;
    left -= n;
  }
}

void ShardedGroup::finish_join(uint32_t idx) {
  JoinOp& op = join_ops_[idx];
  Done done = std::move(op.done);
  op.live = false;
  join_ops_.release(idx);
  if (done) done();
}

}  // namespace hyperloop::core
