// Bank ledger: ACID transfers over a HyperLoop chain.
//
//   build/examples/bank_ledger
//
// A classic X->Y transfer must move money atomically: both account slots
// change or neither does. The example runs transfers through the
// TransactionManager (group locks + replicated WAL + ExecuteAndAdvance),
// injects a crash between commit and execution, and shows that redo-log
// replay reconstructs a consistent ledger — the invariant (total balance)
// never breaks. Exits non-zero if it does, on any replica.
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/hyperloop_group.h"
#include "core/lock.h"
#include "core/server.h"
#include "core/txn.h"
#include "core/wal.h"

using namespace hyperloop;

namespace {

constexpr int kAccounts = 16;
constexpr uint64_t kInitialBalance = 1000;

uint64_t account_offset(int i) { return static_cast<uint64_t>(i) * 64; }

}  // namespace

int main() {
  core::Cluster::Config cc;
  cc.num_servers = 4;
  core::Cluster cluster(cc);

  core::RegionLayout layout;
  layout.region_size = 1 << 20;
  layout.log_size = 128 << 10;
  layout.num_locks = kAccounts;

  core::HyperLoopGroup::Config gc;
  gc.region_size = layout.region_size;
  std::vector<core::Server*> replicas = {&cluster.server(0),
                                         &cluster.server(1),
                                         &cluster.server(2)};
  core::HyperLoopGroup group(cluster.server(3), replicas, gc);
  core::ReplicatedWal wal(group, layout);
  core::GroupLockManager locks(group, layout);
  core::TransactionManager txns(group, wal, locks, cluster.loop());

  // Seed the ledger (control path): every account gets 1000.
  for (int a = 0; a < kAccounts; ++a) {
    const uint64_t bal = kInitialBalance;
    group.client_store(layout.db_base() + account_offset(a), &bal, 8);
  }
  group.gwrite(layout.db_base(), kAccounts * 64, true, [] {});
  cluster.loop().run_until(sim::msec(5));

  auto balance = [&](size_t replica, int a) {
    uint64_t v = 0;
    group.replica_load(replica, layout.db_base() + account_offset(a), &v, 8);
    return v;
  };
  auto total = [&](size_t replica) {
    uint64_t t = 0;
    for (int a = 0; a < kAccounts; ++a) t += balance(replica, a);
    return t;
  };

  // Run 200 random transfers. Each transfer is a read-modify-write: it
  // reads the current balances from the coordinator's copy and commits
  // the new ones under group locks. Transfers are chained (the next one
  // issues when the previous commits) so every read sees committed state:
  // the coordinator's copy holds a transaction's writes when it reports
  // (core/group.h, gmemcpy). Concurrent disjoint transactions are
  // exercised by tests/txn_test.cc.
  sim::Rng rng(7);
  int committed = 0;
  std::function<void(int)> transfer = [&](int remaining) {
    if (remaining == 0) return;
    const int from = static_cast<int>(rng.next_below(kAccounts));
    int to = static_cast<int>(rng.next_below(kAccounts));
    if (to == from) to = (to + 1) % kAccounts;
    const uint64_t amount = 1 + rng.next_below(50);

    uint64_t from_bal = 0, to_bal = 0;
    group.client_load(layout.db_base() + account_offset(from), &from_bal, 8);
    group.client_load(layout.db_base() + account_offset(to), &to_bal, 8);
    if (from_bal < amount) {
      transfer(remaining - 1);
      return;
    }
    from_bal -= amount;
    to_bal += amount;
    std::vector<core::ReplicatedWal::Entry> writes;
    std::vector<uint8_t> fb(8), tb(8);
    std::memcpy(fb.data(), &from_bal, 8);
    std::memcpy(tb.data(), &to_bal, 8);
    writes.push_back({account_offset(from), fb});
    writes.push_back({account_offset(to), tb});
    txns.execute(std::move(writes),
                 {static_cast<uint32_t>(from), static_cast<uint32_t>(to)},
                 [&, remaining](bool ok) {
                   committed += ok ? 1 : 0;
                   transfer(remaining - 1);
                 });
  };
  transfer(200);
  cluster.loop().run_until(cluster.loop().now() + sim::seconds(5));
  std::printf("committed %d transfers\n", committed);

  const uint64_t expected_total = uint64_t{kAccounts} * kInitialBalance;
  int status = 0;
  for (size_t r = 0; r < 3; ++r) {
    std::printf("replica %zu total balance: %llu (expect %llu)\n", r,
                static_cast<unsigned long long>(total(r)),
                static_cast<unsigned long long>(expected_total));
    if (total(r) != expected_total) status = 1;
  }

  // Crash injection: append one more transfer but crash replica 2 before
  // anyone executes it; replay recovers it from the committed log.
  uint64_t b0 = 0, b1 = 0;
  group.client_load(layout.db_base() + account_offset(0), &b0, 8);
  group.client_load(layout.db_base() + account_offset(1), &b1, 8);
  b0 -= 123;
  b1 += 123;
  std::vector<uint8_t> a0(8), a1(8);
  std::memcpy(a0.data(), &b0, 8);
  std::memcpy(a1.data(), &b1, 8);
  wal.append({{account_offset(0), a0}, {account_offset(1), a1}},
             [](uint64_t lsn) {
               std::printf("late transfer committed at lsn %llu\n",
                           static_cast<unsigned long long>(lsn));
             });
  cluster.loop().run_until(cluster.loop().now() + sim::msec(5));

  group.replica_server(2).nvm().crash();
  std::printf("replica 2 crashed; balance[0] before replay: %llu\n",
              static_cast<unsigned long long>(balance(2, 0)));

  const rdma::Addr base = group.replica_region_base(2);
  core::Server& victim = group.replica_server(2);
  const uint64_t applied = core::ReplicatedWal::replay(
      layout,
      [&](uint64_t off, void* dst, uint32_t len) {
        victim.mem().read(base + off, dst, len);
      },
      [&](uint64_t off, const void* src, uint32_t len) {
        victim.mem().write(base + off, src, len);
      });
  std::printf("replayed %llu records; balance[0] now %llu, total %llu\n",
              static_cast<unsigned long long>(applied),
              static_cast<unsigned long long>(balance(2, 0)),
              static_cast<unsigned long long>(total(2)));
  if (total(2) != expected_total) status = 1;
  return status;
}
