#!/usr/bin/env sh
# Hot-path token lint: the files a simulated op runs through (event loop,
# scheduler, NIC, fabric, NVM, replication backends, stores) must stay on
# sim::SmallFn completions and flat (seq-indexed / pooled) tables. The
# kernel-TCP stack (src/core/tcp_stack.*) is not listed: its per-port
# handler table is built at set-up and only looked up per message.
# A reappearing std::function or std::unordered_map means a heap-backed
# callable or a hashing map crept back onto the per-op path, which the
# nic_alloc_test transaction lap would catch at runtime — this catches it
# at review time, comments included (a plain grep, by design).
#
# Usage: tools/lint_hot_path.sh   (also wired as the `lint` cmake target,
# the `lint.hot_path` ctest test and a ci.yml step)
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)

FILES="
src/core/group.h
src/core/backend_group.h
src/core/backend_group.cc
src/core/hyperloop_group.h
src/core/hyperloop_group.cc
src/core/naive_group.h
src/core/naive_group.cc
src/core/fanout_group.h
src/core/fanout_group.cc
src/core/tcp_group.h
src/core/tcp_group.cc
src/core/op_window.h
src/core/wal.h
src/core/wal.cc
src/core/lock.h
src/core/lock.cc
src/core/txn.h
src/core/txn.cc
src/core/two_phase.h
src/core/two_phase.cc
src/core/sharded_group.h
src/core/sharded_group.cc
src/core/remote_reader.h
src/core/remote_reader.cc
src/core/sharded_reader.h
src/core/sharded_reader.cc
src/rdma/nic.h
src/rdma/nic.cc
src/rdma/completion_queue.h
src/rdma/completion_queue.cc
src/rdma/queue_pair.h
src/rdma/slot_table.h
src/rdma/payload_buf.h
src/rdma/payload_buf.cc
src/rdma/memory.h
src/rdma/memory.cc
src/rdma/packet.h
src/rdma/wqe.h
src/rdma/wqe.cc
src/rdma/network.h
src/rdma/network.cc
src/sim/slot_pool.h
src/sim/event_loop.h
src/sim/event_loop.cc
src/sim/cpu_scheduler.h
src/sim/cpu_scheduler.cc
src/sim/ring.h
src/nvm/nvm_device.h
src/nvm/nvm_device.cc
src/nvm/dirty_bitmap.h
src/nvm/dirty_bitmap.cc
src/core/region_layout.h
src/apps/slot_table.h
src/apps/kvstore/kvstore.h
src/apps/kvstore/kvstore.cc
src/apps/docstore/docstore.h
src/apps/docstore/docstore.cc
"

status=0
for f in $FILES; do
  if [ ! -f "$ROOT/$f" ]; then
    echo "lint: missing gated file $f" >&2
    status=1
    continue
  fi
  if grep -nE 'std::(function|unordered_map)' "$ROOT/$f"; then
    echo "lint: banned token in $f (use sim::SmallFn / flat tables on the hot path)" >&2
    status=1
  fi
done

[ "$status" -eq 0 ] && echo "lint: hot-path files clean"
exit $status
