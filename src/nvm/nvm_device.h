// Simulated non-volatile memory with an explicit volatile front.
//
// The paper's durability pitfall (§4.2, gFLUSH): an RDMA WRITE is ACKed
// once the data reaches the NIC's *volatile* cache, so an un-flushed write
// can be lost on power failure even though the writer saw success. We model
// this precisely:
//
//   - The "live" bytes reside in the server's HostMemory (visible to all
//     readers immediately).
//   - A durable shadow copy holds what would survive power loss.
//   - Every write inside the NVM range is recorded as dirty (volatile).
//   - persist() copies live -> durable for a range (CPU cache-line flush
//     or the NIC's gFLUSH-triggered cache write-back).
//   - crash() copies durable -> live, i.e. un-persisted writes vanish —
//     which is how tests prove gFLUSH is both necessary and sufficient.
//
// Dirty tracking is a two-level DirtyBitmap at 64 B cache-line
// granularity (see dirty_bitmap.h): marking, persisting and querying are
// word operations with zero steady-state heap allocation, and — like real
// CLWB/ADR hardware — flushing any byte of a line makes the whole line
// durable. The tests check the bitmap against a byte-exact interval-set
// reference model (tests/interval_set.h).
#pragma once

#include <cstdint>

#include "nvm/dirty_bitmap.h"
#include "rdma/memory.h"

namespace hyperloop::nvm {

/// A byte-range of a server's HostMemory backed by simulated NVM.
class NvmDevice {
 public:
  /// Carves `size` bytes out of `mem` (allocated here) and hooks write
  /// observation so all stores into the range are tracked as dirty.
  NvmDevice(rdma::HostMemory& mem, size_t size);
  NvmDevice(const NvmDevice&) = delete;
  NvmDevice& operator=(const NvmDevice&) = delete;

  /// Base address of the NVM range within the host address space.
  rdma::Addr base() const { return base_; }
  size_t size() const { return size_; }

  /// Bump-allocates a sub-range of the NVM for a durable data structure
  /// (replicated region, write-ahead log, ...). Aborts with a message on
  /// exhaustion, in every build.
  rdma::Addr alloc(size_t bytes, size_t align = 64);

  /// True if `addr` falls inside the NVM range.
  bool contains(rdma::Addr addr) const {
    return addr >= base_ && addr < base_ + size_;
  }

  /// Flushes [addr, addr+len) from the volatile domain to the durable
  /// medium, rounded outward to whole 64 B lines (CLWB semantics).
  /// Out-of-range parts are ignored.
  void persist(rdma::Addr addr, uint64_t len);

  /// Flushes every dirty byte (a full cache write-back, what the NIC does
  /// when it services a gFLUSH 0-byte READ).
  void persist_all();

  /// True if every byte of [addr, addr+len) would survive a crash, i.e.
  /// no overlapping cache line is dirty.
  bool is_durable(rdma::Addr addr, uint64_t len) const;

  /// Bytes currently at risk (written but not persisted), reported at
  /// line granularity: dirty lines x 64.
  uint64_t dirty_bytes() const { return dirty_.dirty_bytes(); }

  /// Simulates power failure: all un-persisted writes are lost; the live
  /// bytes revert to the last durable state.
  void crash();

  /// Number of crash() calls so far (for failure-injection accounting).
  uint64_t crash_count() const { return crashes_; }

 private:
  void on_write(rdma::Addr addr, size_t len);

  rdma::HostMemory& mem_;
  rdma::Addr base_;
  size_t size_;
  rdma::ZeroPages durable_;  // the durable image, demand-zero like the arena
  DirtyBitmap dirty_;  // offsets relative to base_, 64 B line granularity
  uint64_t next_ = 0;  // bump allocator offset
  uint64_t crashes_ = 0;
};

}  // namespace hyperloop::nvm
