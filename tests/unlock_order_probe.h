// Unlock-after-apply probe for the transaction tests.
//
// A transaction's release may clear a replica's writer word only once
// its redo record is applied on that replica: a reader that locks the
// replica after the release must see the record. The probe watches each
// replica's lock table through a HostMemory write observer and, whenever
// a writer word goes from an owner to 0, checks that the DB slot the lock
// guards on that replica already holds the value its transaction
// committed. A release that lands first is counted as early.
//
// Lock i guards the 8-byte DB slot at DB-area offset slot_base +
// i * slot_stride. Set expect(i, value) before the transaction runs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/region_layout.h"
#include "rdma/memory.h"

namespace hyperloop::core {

class UnlockOrderProbe {
 public:
  UnlockOrderProbe(uint32_t locks, uint64_t slot_base, uint64_t slot_stride)
      : st_(std::make_shared<State>()) {
    st_->slot_base = slot_base;
    st_->slot_stride = slot_stride;
    st_->expected.assign(locks, 0);
  }

  void expect(uint32_t lock, uint64_t value) { st_->expected[lock] = value; }

  /// Watches locks [0, locks) of the region laid out as `layout` at
  /// `region_base` in `mem` (one replica of one group).
  void watch(rdma::HostMemory& mem, rdma::Addr region_base,
             const RegionLayout& layout) {
    const size_t w = st_->regions.size();
    const uint32_t n = static_cast<uint32_t>(st_->expected.size());
    st_->regions.push_back(
        Region{&mem, region_base, layout, std::vector<uint64_t>(n, 0)});
    mem.add_write_observer(region_base + layout.lock_offset(0),
                           region_base + layout.lock_offset(n),
                           [st = st_, w](rdma::Addr addr, size_t len) {
                             st->on_write(w, addr, len);
                           });
  }

  uint64_t releases() const { return st_->releases; }
  uint64_t early() const { return st_->early; }

 private:
  struct Region {
    rdma::HostMemory* mem;
    rdma::Addr base;
    RegionLayout layout;
    std::vector<uint64_t> writer;  ///< last writer word seen, per lock
  };

  // Shared with the observers, which live as long as the memory does.
  struct State {
    uint64_t slot_base = 0;
    uint64_t slot_stride = 0;
    std::vector<uint64_t> expected;
    std::vector<Region> regions;
    uint64_t releases = 0;
    uint64_t early = 0;

    void on_write(size_t w, rdma::Addr addr, size_t len) {
      Region& r = regions[w];
      for (uint32_t i = 0; i < expected.size(); ++i) {
        const rdma::Addr word = r.base + r.layout.lock_offset(i);
        if (addr >= word + 8 || addr + len <= word) continue;
        uint64_t now = 0;
        r.mem->read(word, &now, 8);
        if (r.writer[i] != 0 && now == 0) {
          ++releases;
          uint64_t slot = 0;
          r.mem->read(r.base + r.layout.db_base() + slot_base +
                          uint64_t{i} * slot_stride,
                      &slot, 8);
          if (slot != expected[i]) ++early;
        }
        r.writer[i] = now;
      }
    }
  };

  std::shared_ptr<State> st_;
};

}  // namespace hyperloop::core
