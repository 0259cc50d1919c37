// Wire messages exchanged between simulated NICs.
//
// One Packet models one RDMA transport message (request or response) on a
// reliable connection. Per-source egress serialization plus fixed
// propagation delay in Network preserves RC ordering: packets posted in
// order on the same QP arrive and are processed in order.
#pragma once

#include <cstdint>

#include "rdma/memory.h"
#include "rdma/payload_buf.h"

namespace hyperloop::rdma {

/// Identifies a NIC on the fabric.
using NicId = uint32_t;

/// Packet::flags bits.
enum PacketFlags : uint8_t {
  /// Request asks the responder to skip the standalone success ACK; a
  /// later cumulative response (ReadResp/ACK at a higher PSN on the same
  /// QP) acknowledges it. Error responses are never elided.
  kPacketFlagAckElide = 1u << 0,
};

struct Packet {
  enum class Type : uint8_t {
    kSend,      ///< two-sided send; consumes a RECV at the destination
    kWrite,     ///< one-sided write
    kWriteImm,  ///< one-sided write + immediate (consumes a RECV)
    kRead,      ///< read request (length 0 == durability flush, §4.2 gFLUSH)
    kReadResp,  ///< read response carrying data
    kCas,       ///< compare-and-swap request
    kCasResp,   ///< CAS response carrying the original value
    kAck,       ///< acknowledgement completing WRITE/SEND at the requester
  };

  Type type = Type::kSend;
  NicId src_nic = 0;
  NicId dst_nic = 0;
  uint32_t src_qpn = 0;  ///< requester QP (responses are routed back to it)
  uint32_t dst_qpn = 0;
  /// Packet sequence number within the QP's request stream. The RC
  /// transport delivers requests in PSN order: the responder accepts
  /// exactly expected_psn, drops ahead-of-sequence packets (go-back-N) and
  /// replays cached responses for duplicates. A response carries its
  /// request's PSN, which is how the requester matches it.
  uint64_t psn = 0;

  bool is_request() const {
    return type != Type::kAck && type != Type::kReadResp &&
           type != Type::kCasResp;
  }

  Addr remote_addr = 0;
  uint32_t rkey = 0;
  uint32_t length = 0;
  uint32_t imm = 0;
  uint64_t compare = 0;
  uint64_t swap = 0;
  uint8_t status = 0;  ///< responses: CqStatus
  uint8_t flags = 0;   ///< PacketFlags bitmask

  /// Pooled and refcounted: copying a Packet (retransmit window, response
  /// cache, in-flight delivery) shares one block instead of copying bytes.
  PayloadBuf payload;

  /// Bytes this packet occupies on the wire (payload + header estimate).
  size_t wire_bytes() const { return payload.size() + 64; }
};

}  // namespace hyperloop::rdma
