// One-sided RDMA reads from the replicas' replicated regions.
//
// HyperLoop allows lock-free (or read-locked) reads from any replica of
// the chain (§5). RemoteReader owns a small pool of dedicated QPs — one
// per replica it can read from — plus per-endpoint fragment credits and
// a landing ring in client memory, so read traffic never interferes
// with the pre-posted primitive rings, and read *load* can be spread
// across replicas with a pluggable selection policy (Storm-style
// one-sided fan-out):
//
//   kHeadOnly    every read goes to target 0
//   kRoundRobin  logical reads rotate across all targets
//
// Reads larger than one slot are fragmented, one credit per fragment, on
// the chosen endpoint (never across endpoints — one logical read
// observes one replica), staged with stage_send and issued under a
// single doorbell. readv() batches discontiguous extents the same way:
// one endpoint, one doorbell, one completion with the extents
// concatenated in order.
//
// Each fragment lands at its final place in the read's stretch of the
// endpoint's landing ring, so the NIC's landing is the read's only copy.
// Completion hands the caller a ReadView of those landed bytes, valid
// only inside the callback — so the steady-state read path performs zero
// heap allocations (gated by nic_alloc_test and tools/lint_hot_path.sh).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/group.h"
#include "core/server.h"
#include "rdma/nic.h"
#include "sim/ring.h"
#include "sim/small_fn.h"

namespace hyperloop::core {

/// Non-owning view of the bytes a read returned. Valid only for the
/// duration of the completion callback (the landing bytes it points at
/// are reused) — copy out what must outlive it. Mirrors CasResult.
class ReadView {
 public:
  ReadView() = default;
  ReadView(const uint8_t* data, uint32_t len) : data_(data), len_(len) {}

  const uint8_t* data() const { return data_; }
  uint32_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + len_; }
  uint8_t operator[](size_t i) const {
    assert(i < len_);
    return data_[i];
  }

 private:
  const uint8_t* data_ = nullptr;
  uint32_t len_ = 0;
};

/// Inline capture budget for read completions. 96 bytes: enough for a
/// `this` pointer, a key, and a nested 48-cap StorageEngine callback —
/// the docstore/kvstore read chains are exactly that shape.
inline constexpr size_t kReadDoneCap = 96;

/// Completion callback for reads. The ReadView is only valid inside the
/// call. Move-only; capture state stays inline in the pooled op slot.
using ReadDone = sim::SmallFn<void(ReadView), kReadDoneCap>;

static_assert(sizeof(ReadDone) == kReadDoneCap + 2 * sizeof(void*),
              "ReadDone must stay a flat inline-capture SmallFn");

/// readv()'s extent list, sized for one extent per shard at the largest
/// sharded configs.
using ReadExtent = Extent;
using ReadVec = ExtentList<16>;

class RemoteReader {
 public:
  /// Replica-selection policy for reads that do not name a replica.
  enum class Policy : uint8_t { kHeadOnly, kRoundRobin };

  /// One readable replica: its server plus the base/rkey of its region.
  struct Target {
    Server* server = nullptr;
    rdma::Addr remote_base = 0;
    uint32_t rkey = 0;
  };

  struct Options {
    uint32_t slots = 32;        ///< fragment credits per endpoint
    uint32_t slot_size = 16384; ///< bytes per fragment
    Policy policy = Policy::kHeadOnly;
    size_t nic_index = 0;       ///< client/replica NIC the QPs live on
  };

  struct Stats {
    uint64_t reads_issued = 0;  ///< logical reads (read/readv calls issued)
    uint64_t frags_issued = 0;  ///< slot-sized READ WQEs posted
    uint64_t read_bytes = 0;    ///< payload bytes returned to callers
    uint64_t aborted_reads = 0; ///< dropped by stop() before completing
  };

  /// Reads spread across `targets` under `opts.policy`.
  RemoteReader(Server& client, std::vector<Target> targets, Options opts);

  ~RemoteReader();
  RemoteReader(const RemoteReader&) = delete;
  RemoteReader& operator=(const RemoteReader&) = delete;

  /// Reads `len` bytes at region `offset` from a policy-chosen replica.
  /// Fragments into slot-sized READs when len > slot_size; requires
  /// len <= max_read_len(). Reads park FIFO when slots are busy.
  void read(uint64_t offset, uint32_t len, ReadDone done);

  /// Same, from a specific replica (callers that read-lock a replica must
  /// read the one they locked).
  void read_from(size_t replica, uint64_t offset, uint32_t len,
                 ReadDone done);

  /// Batched scatter read: every extent from one policy-chosen replica,
  /// staged together and issued under one doorbell. The completion view
  /// is the extents' bytes concatenated in list order.
  void readv(const ReadVec& extents, ReadDone done);

  /// Applies the selection policy and returns the replica the *next*
  /// policy-routed read would use (advancing round-robin state). Callers
  /// that must lock the replica they read pick here, lock, then
  /// read_from() the same index.
  size_t next_replica();

  /// Idempotent teardown: parked and in-flight reads are dropped without
  /// their callbacks firing (counted in stats().aborted_reads); QPs and
  /// CQs are destroyed (staged WQEs and in-flight response packets then
  /// drop at the NIC). The destructor calls stop().
  void stop();

  size_t num_replicas() const { return endpoints_.size(); }
  Server& client() { return client_; }
  const Server& client() const { return client_; }
  uint32_t slot_size() const { return opts_.slot_size; }
  /// Largest single logical read/readv (all its fragments must hold one
  /// endpoint's slot credits at once).
  uint32_t max_read_len() const { return opts_.slots * opts_.slot_size; }

  uint64_t reads_issued() const { return stats_.reads_issued; }
  const Stats& stats() const { return stats_; }
  /// READ fragments issued to replica `i` (the read-spread signal).
  uint64_t replica_frags(size_t i) const {
    return endpoints_.at(i).frags_issued;
  }

  /// Where a read of `n` bytes lands in an endpoint's landing ring of
  /// `cap` bytes while reads are live there: `oldest` is the oldest live
  /// read's offset and [newest_off, newest_end) the newest's. It lands
  /// right behind the newest read, at the base when there is no room
  /// above it, and in the gap below the oldest read while the live reads
  /// wrap; an idle endpoint lands at the base. Live bytes never exceed
  /// the credits in flight, plus the oldest read (it may have returned
  /// its credits while its callback runs), plus one skipped wrap tail,
  /// each at most max_read_len(), so 3 × max_read_len() always fits.
  static uint32_t landing_offset(uint32_t oldest, uint32_t newest_off,
                                 uint32_t newest_end, uint32_t n,
                                 uint32_t cap);

 private:
  /// One logical read in flight: its fragments outstanding, where its
  /// bytes land in its endpoint's ring, and the parked completion.
  struct ReadOp {
    uint64_t seq = 0;  ///< the read's number; every fragment's wr_id
    uint32_t remaining = 0;
    uint32_t len = 0;
    uint32_t land_off = 0;  ///< offset of its bytes in the landing ring
    ReadDone done;
  };

  /// One QP to one replica plus its credits and landing ring. READ
  /// completions arrive in post order per QP and a read's fragments are
  /// posted back to back, so the endpoint's reads complete in issue
  /// order: a FIFO whose front is the read the next completion belongs to.
  struct Endpoint {
    Server* server = nullptr;
    rdma::Addr remote_base = 0;
    uint32_t rkey = 0;
    rdma::QueuePair* qp = nullptr;
    rdma::QueuePair* stub = nullptr;  ///< routing endpoint on the replica
    rdma::CompletionQueue* cq = nullptr;
    /// Fragment credits: a read of n fragments issues only while n are
    /// free, else it parks; each completed fragment returns one.
    uint32_t free_slots = 0;
    rdma::Addr land_base = 0;  ///< the landing ring, 3 × max_read_len()
    /// In issue order; a read leaves after its callback returns.
    sim::Ring<ReadOp> reads;
    uint64_t frags_issued = 0;
  };

  /// A logical read parked until its endpoint has enough free credits.
  struct Parked {
    ReadVec extents;
    uint32_t replica = 0;
    ReadDone done;
  };

  static uint32_t frags_needed(const ReadVec& v, uint32_t slot_size);
  size_t pick_replica();
  void submit(size_t replica, const ReadVec& extents, ReadDone done);
  void issue(size_t replica, const ReadVec& extents, ReadDone done);
  void replay_waiting();
  void on_completion(size_t replica);
  rdma::Nic& client_nic() { return client_.nic(opts_.nic_index); }

  Server& client_;
  Options opts_;
  std::vector<Endpoint> endpoints_;
  size_t rr_next_ = 0;             ///< round-robin cursor
  sim::Ring<Parked> waiting_;      ///< reads parked for credits
  Stats stats_;
  bool stopped_ = false;
};

}  // namespace hyperloop::core
