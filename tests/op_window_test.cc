// OpWindow (core/op_window.h) holds every backend's credit window, so the
// ordering rules the simulated schedule depends on are pinned here on the
// window alone; group_order_test holds each backend to the contract.
#include "core/op_window.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hyperloop::core {
namespace {

// A window of `credits` over int ops. The issue function opens each op
// with `acks` ACKs due and logs "issue N"; callbacks log "done N".
struct Harness {
  explicit Harness(uint32_t credits) : win(credits, 2 * credits) {}

  OpWindow<int> win;
  uint32_t acks = 1;
  std::vector<std::string> log;
  std::vector<uint64_t> seq_of = std::vector<uint64_t>(16, ~uint64_t{0});

  auto issuer() {
    return [this](const int& op, Done done, CasDone cas_done) {
      log.push_back("issue " + std::to_string(op));
      seq_of[op] = win.open(std::move(done), std::move(cas_done), acks);
    };
  }

  void submit(int op, Done done) {
    win.submit(op, std::move(done), CasDone{}, issuer());
  }
  void submit(int op) {
    submit(op, [this, op] { log.push_back("done " + std::to_string(op)); });
  }

  /// Delivers one ACK for seq; true if it completed an op.
  bool ack_seq(uint64_t seq) {
    auto* slot = win.ack(static_cast<uint32_t>(seq));
    if (slot == nullptr) return false;
    win.complete(*slot, [] { return CasResult(nullptr, 0); }, issuer());
    return true;
  }
  bool ack(int op) { return ack_seq(seq_of[op]); }
};

using Log = std::vector<std::string>;

TEST(OpWindowTest, CompletionReissuesOneParkedOpAfterItsCallback) {
  Harness h(2);
  for (int op = 0; op < 4; ++op) h.submit(op);
  EXPECT_EQ(h.log, (Log{"issue 0", "issue 1"}));

  h.log.clear();
  ASSERT_TRUE(h.ack(0));
  EXPECT_EQ(h.log, (Log{"done 0", "issue 2"}));

  h.log.clear();
  ASSERT_TRUE(h.ack(1));
  ASSERT_TRUE(h.ack(2));
  EXPECT_EQ(h.log, (Log{"done 1", "issue 3", "done 2"}));
}

TEST(OpWindowTest, OpSubmittedFromCallbackParksBehindParkedOps) {
  Harness h(1);
  // Op 0's completion frees the only credit, then its callback submits
  // op 9 while ops 1 and 2 wait: 9 must go after both.
  h.submit(0, [&h] {
    h.log.push_back("done 0");
    h.submit(9);
  });
  h.submit(1);
  h.submit(2);
  ASSERT_TRUE(h.ack(0));
  ASSERT_TRUE(h.ack(1));
  ASSERT_TRUE(h.ack(2));
  EXPECT_EQ(h.log, (Log{"issue 0", "done 0", "issue 1", "done 1", "issue 2",
                        "done 2", "issue 9"}));
}

TEST(OpWindowTest, CallbackSeesItsCreditFreed) {
  Harness h(1);
  h.submit(0, [&h] {
    h.log.push_back("done 0");
    h.submit(1);  // nothing parked: issues at once on the freed credit
    h.log.push_back("callback returns");
  });
  ASSERT_TRUE(h.ack(0));
  EXPECT_EQ(h.log, (Log{"issue 0", "done 0", "issue 1", "callback returns"}));
}

TEST(OpWindowTest, StaleOrDuplicateAckChangesNothing) {
  Harness h(2);  // 4 slots: seq 4 maps onto seq 0's slot
  h.submit(0);
  h.submit(1);
  EXPECT_FALSE(h.ack_seq(4)) << "seq aliasing a live slot";
  EXPECT_FALSE(h.ack_seq(7)) << "seq never issued";
  ASSERT_TRUE(h.ack(0));
  EXPECT_FALSE(h.ack(0)) << "duplicate ACK";
  ASSERT_TRUE(h.ack(1));
  EXPECT_EQ(h.log, (Log{"issue 0", "issue 1", "done 0", "done 1"}));
}

TEST(OpWindowTest, MultiAckSlotCompletesOnTheLastAck) {
  Harness h(2);
  h.acks = 3;
  uint64_t got = 0;
  h.win.submit(
      0, Done{}, [&got](const CasResult& r) { got = r[1]; }, h.issuer());
  const uint32_t seq = static_cast<uint32_t>(h.seq_of[0]);
  EXPECT_EQ(h.win.ack(seq), nullptr);
  EXPECT_EQ(h.win.ack(seq), nullptr);
  auto* slot = h.win.ack(seq);
  ASSERT_NE(slot, nullptr);
  const uint64_t results[] = {7, 8};
  h.win.complete(*slot, [&] { return CasResult(results, 2); }, h.issuer());
  EXPECT_EQ(got, 8u);
  EXPECT_EQ(h.win.ack(seq), nullptr);
}

TEST(OpWindowTest, AbortAllDropsInFlightAndParkedOpsSilently) {
  Harness h(2);
  for (int op = 0; op < 5; ++op) h.submit(op);
  EXPECT_EQ(h.win.abort_all(), 5u);
  EXPECT_FALSE(h.ack(0));
  EXPECT_FALSE(h.ack(1));
  EXPECT_EQ(h.log, (Log{"issue 0", "issue 1"}));
}

}  // namespace
}  // namespace hyperloop::core
