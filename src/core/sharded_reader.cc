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
  const uint32_t touched = router_.shards_touched(extents);
  ++stats_.reads_issued;
  stats_.read_bytes += extents.total_len();
  // Fast path: one shard owns the whole batch — forward untouched, the
  // shard reader assembles and completes it (no join, no extra copy).
  if (touched == 1) {
    const uint32_t s = router_.shard_of(extents[0].offset);
    shards_[s]->readv(extents, std::move(done));
    return;
  }

  // Scatter: issue each shard's sub-batch on its own chain (its own QPs
  // and doorbell), rejoin via a pooled index-captured slot.
  ++stats_.scatter_reads;
  const uint32_t idx = join_ops_.claim();
  JoinOp& op = join_ops_[idx];
  op.extents = extents;
  op.remaining = touched;
  op.live = true;
  if (op.scratch.size() < extents.total_len()) {
    op.scratch.resize(extents.total_len());
  }
  op.done = std::move(done);
  for (uint32_t s = 0; s < shards(); ++s) {
    const ReadVec sub = router_.owned_by(s, extents);
    if (sub.empty()) continue;
    shards_[s]->readv(sub, [this, idx, s](ReadView view) {
      child_done(idx, s, view);
    });
  }
}

void ShardedReader::child_done(uint32_t idx, uint32_t shard, ReadView view) {
  JoinOp& op = join_ops_[idx];
  assert(op.live && op.remaining > 0);
  // The child view is shard `shard`'s extents concatenated in list order;
  // copy each to its place in the logical output.
  uint32_t src = 0;
  uint32_t dst = 0;
  for (const ReadExtent& e : op.extents) {
    if (router_.shard_of(e.offset) == shard) {
      std::memcpy(op.scratch.data() + dst, view.data() + src, e.len);
      src += e.len;
    }
    dst += e.len;
  }
  assert(src == view.size());
  if (--op.remaining > 0) return;
  op.live = false;
  ReadDone done = std::move(op.done);
  // Snapshot before invoking: a read issued from inside the callback can
  // grow join_ops_ (invalidating `op`); the scratch buffer stays put.
  const uint8_t* data = op.scratch.data();
  done(ReadView(data, dst));
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
