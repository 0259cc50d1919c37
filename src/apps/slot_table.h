// The DB-area record format both stores share (§5.1, §5.2: the case
// studies change their stores only at the WAL, lock and replication
// layer, so both keep their records in the replicated region's database
// area the same way).
//
// Records are fixed-stride slots indexed by the dense YCSB key:
//
//   [key u64][len u32][pad u32][value bytes]     stride = 16 + value_size
//
// Keys stripe k % shards across equal region slices
// (RegionLayout::shard_slice): key k lives in slice k % shards at local
// slot k / shards. The keys of [key, key + count) that fall on one slice
// therefore sit in consecutive slots there, so a range scan is one
// extent per slice. A single-slice store is shards == 1.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "apps/ycsb/workload.h"
#include "core/group.h"
#include "core/region_layout.h"
#include "core/remote_reader.h"

namespace hyperloop::apps {

class SlotTable {
 public:
  static constexpr uint32_t kHeader = 16;

  /// `slice` is the shard-0 layout (base 0); slice s is
  /// slice.shard_slice(s).
  SlotTable(const core::RegionLayout& slice, uint32_t shards,
            uint32_t value_size)
      : slice_(slice), shards_(shards), value_size_(value_size) {
    assert(shards >= 1);
    assert(slice.base == 0 && "pass the shard-0 slice layout");
  }

  uint64_t stride() const { return kHeader + value_size_; }
  uint32_t shard_of(uint64_t key) const {
    return static_cast<uint32_t>(key % shards_);
  }
  core::RegionLayout layout(uint32_t s) const { return slice_.shard_slice(s); }

  /// Offset of `key`'s slot within its slice's DB area (what a WAL entry
  /// names as its db_offset).
  uint64_t db_offset(uint64_t key) const { return key / shards_ * stride(); }
  /// Region offset of `key`'s slot.
  uint64_t offset(uint64_t key) const {
    return layout(shard_of(key)).db_base() + db_offset(key);
  }

  std::vector<uint8_t> encode(uint64_t key,
                              const std::vector<uint8_t>& value) const {
    assert(value.size() <= value_size_);
    std::vector<uint8_t> slot(stride());
    std::memcpy(slot.data(), &key, 8);
    const auto len = static_cast<uint32_t>(value.size());
    std::memcpy(slot.data() + 8, &len, 4);
    std::memcpy(slot.data() + kHeader, value.data(), value.size());
    return slot;
  }

  /// Value length recorded in a slot header, or 0 if the slot is empty
  /// (or its length is out of range).
  uint32_t value_len(const uint8_t* slot) const {
    uint32_t len = 0;
    std::memcpy(&len, slot + 8, 4);
    return len <= value_size_ ? len : 0;
  }

  /// The slots of keys [key, key + count): one extent per slice that
  /// holds any of them, clipped at the end of that slice's DB area.
  core::ReadVec scan_extents(uint64_t key, uint64_t count) const {
    core::ReadVec v;
    const uint64_t max_slots = slice_.db_size() / stride();
    for (uint32_t s = 0; s < shards_; ++s) {
      const uint64_t first = key + (s + shards_ - key % shards_) % shards_;
      if (first >= key + count) continue;
      const uint64_t l0 = first / shards_;
      if (l0 >= max_slots) continue;
      const uint64_t n =
          std::min((key + count - 1 - first) / shards_ + 1, max_slots - l0);
      v.push_back(core::ReadExtent{layout(s).db_base() + l0 * stride(),
                                   static_cast<uint32_t>(n * stride())});
    }
    return v;
  }

  /// Slots holding a value among the whole slots laid back to back in
  /// `view` (a scan_extents read).
  int occupied(core::ReadView view) const {
    int n = 0;
    for (uint64_t off = 0; off + stride() <= view.size(); off += stride()) {
      if (value_len(view.data() + off) != 0) ++n;
    }
    return n;
  }

  /// Calls on_slot(key, value, len) for every slot of slice `s` that
  /// holds its own key, reading the image through `load(off, dst, len)`
  /// in chunks of whole slots. `value` points into the chunk and is valid
  /// only inside the call. Cold path.
  template <typename LoadFn, typename SlotFn>
  void for_each(uint32_t s, LoadFn&& load, SlotFn&& on_slot) const {
    const uint64_t base = layout(s).db_base();
    const uint64_t slots = slice_.db_size() / stride();
    const uint64_t per_chunk = std::max<uint64_t>(1, (64 << 10) / stride());
    std::vector<uint8_t> chunk(per_chunk * stride());
    for (uint64_t l0 = 0; l0 < slots; l0 += per_chunk) {
      const uint64_t n = std::min(per_chunk, slots - l0);
      load(base + l0 * stride(), chunk.data(),
           static_cast<uint32_t>(n * stride()));
      for (uint64_t l = l0; l < l0 + n; ++l) {
        const uint8_t* slot = chunk.data() + (l - l0) * stride();
        uint64_t key = 0;
        std::memcpy(&key, slot, 8);
        const uint32_t len = value_len(slot);
        // Local slot l holds key l * shards + s; anything else was never
        // written.
        if (len == 0 || key != l * shards_ + s) continue;
        on_slot(key, slot + kHeader, len);
      }
    }
  }

  /// Control-path bulk load of keys [0, n) with the workload's values:
  /// writes each slot into the client's image (handing the value to
  /// on_key(key, value)), then replicates every slice's loaded span in
  /// 256 KB flushed gWRITEs.
  template <typename KeyFn>
  void bulk_load(core::ReplicationGroup& group, uint64_t n,
                 KeyFn&& on_key) const {
    for (uint64_t k = 0; k < n; ++k) {
      auto value = WorkloadGenerator::value_for(k, value_size_);
      const auto slot = encode(k, value);
      group.client_store(offset(k), slot.data(),
                         static_cast<uint32_t>(slot.size()));
      on_key(k, std::move(value));
    }
    constexpr uint32_t kChunk = 256 << 10;
    for (uint32_t s = 0; s < shards_; ++s) {
      // Slice s holds ceil((n - s) / shards) loaded slots.
      const uint64_t local = n / shards_ + (s < n % shards_ ? 1 : 0);
      const uint64_t total = local * stride();
      for (uint64_t off = 0; off < total; off += kChunk) {
        const auto len =
            static_cast<uint32_t>(std::min<uint64_t>(kChunk, total - off));
        group.gwrite(layout(s).db_base() + off, len, /*flush=*/true, [] {});
      }
    }
  }

 private:
  core::RegionLayout slice_;
  uint32_t shards_;
  uint32_t value_size_;
};

}  // namespace hyperloop::apps
