#include "core/sharded_reader.h"

#include <cstring>

namespace hyperloop::core {

ShardedReader::ShardedReader(
    std::vector<std::unique_ptr<RemoteReader>> shards, ShardRouter router)
    : shards_(std::move(shards)), router_(router) {
  assert(!shards_.empty());
  assert(router_.shards == shards_.size() &&
         "router shard count must match the reader pool");
}

ShardedReader::~ShardedReader() { stop(); }

void ShardedReader::readv(const ReadVec& extents, ReadDone done) {
  assert(!stopped_ && "read on a stopped reader");
  assert(!extents.empty());
  const uint32_t s0 = router_.shard_of(extents[0].offset);
  bool uniform = true;
  for (const ReadExtent& e : extents) {
    assert(e.len > 0);
    assert(router_.shard_of(e.offset) ==
               router_.shard_of(e.offset + e.len - 1) &&
           "extent straddles a routing boundary");
    if (router_.shard_of(e.offset) != s0) uniform = false;
  }
  ++stats_.reads_issued;
  stats_.read_bytes += extents.total_len();
  // Fast path: one shard owns the whole batch — forward untouched, the
  // shard reader assembles and completes it (no join, no extra copy).
  if (uniform) {
    shards_[s0]->readv(extents, std::move(done));
    return;
  }

  // Scatter: split per shard, issue each sub-batch on its own chain
  // (its own QPs and doorbell), rejoin via a pooled index-captured slot.
  ++stats_.scatter_reads;
  const uint32_t idx = join_ops_.claim();
  JoinOp& op = join_ops_[idx];
  if (op.sub.size() < shards_.size()) op.sub.resize(shards_.size());
  for (JoinOp::Sub& sub : op.sub) sub.extents.clear();
  uint32_t total = 0;
  for (const ReadExtent& e : extents) {
    JoinOp::Sub& sub = op.sub[router_.shard_of(e.offset)];
    sub.dst_off[sub.extents.size()] = total;
    sub.extents.push_back(e);
    total += e.len;
  }
  op.remaining = 0;
  for (const JoinOp::Sub& sub : op.sub) {
    if (!sub.extents.empty()) ++op.remaining;
  }
  op.total_len = total;
  op.live = true;
  op.started = shards_[0]->client().loop().now();
  if (op.scratch.size() < total) op.scratch.resize(total);
  op.done = std::move(done);
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    if (join_ops_[idx].sub[s].extents.empty()) continue;
    shards_[s]->readv(join_ops_[idx].sub[s].extents,
                      ReadDone([this, idx, s](ReadView view) {
                        child_done(idx, s, view);
                      }));
  }
}

void ShardedReader::child_done(uint32_t idx, uint32_t shard, ReadView view) {
  JoinOp& op = join_ops_[idx];
  assert(op.live && op.remaining > 0);
  // The child view is shard `shard`'s sub-extents concatenated in order;
  // scatter each segment to its recorded place in the logical output.
  const JoinOp::Sub& sub = op.sub[shard];
  uint32_t src = 0;
  for (uint32_t i = 0; i < sub.extents.size(); ++i) {
    std::memcpy(op.scratch.data() + sub.dst_off[i], view.data() + src,
                sub.extents[i].len);
    src += sub.extents[i].len;
  }
  assert(src == view.size());
  if (--op.remaining > 0) return;
  scatter_latency_.record(static_cast<int64_t>(
      shards_[0]->client().loop().now() - op.started));
  op.live = false;
  ReadDone done = std::move(op.done);
  // Snapshot before invoking: a read issued from inside the callback can
  // grow join_ops_ (invalidating `op`); the scratch buffer stays put.
  const uint8_t* data = op.scratch.data();
  const uint32_t len = op.total_len;
  done(ReadView(data, len));
  join_ops_.release(idx);
}

uint64_t ShardedReader::replica_frags(size_t i) const {
  uint64_t n = 0;
  for (const auto& r : shards_) {
    if (i < r->num_replicas()) n += r->replica_frags(i);
  }
  return n;
}

void ShardedReader::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (JoinOp& op : join_ops_) {
    if (!op.live) continue;
    op.live = false;
    op.done.reset();
    ++stats_.aborted_reads;
  }
  for (auto& r : shards_) r->stop();
}

}  // namespace hyperloop::core
