#include "sim/event_loop.h"

#include <gtest/gtest.h>

#include <vector>

#include "alloc_counter.h"

namespace hyperloop::sim {
namespace {

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, SameTimeIsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(5, [&, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoop, ScheduleAfterUsesCurrentTime) {
  EventLoop loop;
  Time fired = -1;
  loop.schedule_at(100, [&] {
    loop.schedule_after(50, [&] { fired = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired, 150);
}

TEST(EventLoop, PastSchedulingClampsToNow) {
  EventLoop loop;
  Time fired = -1;
  loop.schedule_at(100, [&] {
    loop.schedule_at(10, [&] { fired = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired, 100);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const EventId id = loop.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(id));  // second cancel is a no-op
  loop.run();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, CancelAfterFireReturnsFalse) {
  EventLoop loop;
  const EventId id = loop.schedule_at(10, [] {});
  loop.run();
  EXPECT_FALSE(loop.cancel(id));
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  for (Time t = 10; t <= 100; t += 10) {
    loop.schedule_at(t, [&] { ++count; });
  }
  loop.run_until(50);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(loop.now(), 50);
  loop.run();
  EXPECT_EQ(count, 10);
}

TEST(EventLoop, RunUntilAdvancesClockEvenWhenIdle) {
  EventLoop loop;
  loop.run_until(12345);
  EXPECT_EQ(loop.now(), 12345);
}

TEST(EventLoop, StopInterruptsRun) {
  EventLoop loop;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(i, [&] {
      ++count;
      if (count == 3) loop.stop();
    });
  }
  loop.run();
  EXPECT_EQ(count, 3);
  EXPECT_GT(loop.pending(), 0u);
}

TEST(EventLoop, EventsCanScheduleRecursively) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 100) loop.schedule_after(1, recur);
  };
  loop.schedule_after(0, recur);
  loop.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(loop.now(), 99);
}

TEST(EventLoop, PendingCountsOnlyLiveEvents) {
  EventLoop loop;
  const EventId a = loop.schedule_at(10, [] {});
  loop.schedule_at(20, [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.cancel(a);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, StaleIdCannotCancelRecycledSlot) {
  EventLoop loop;
  bool b_ran = false;
  const EventId a = loop.schedule_at(10, [] {});
  EXPECT_TRUE(loop.cancel(a));
  loop.run();  // pops the dead heap entry, recycling the slot
  const EventId b = loop.schedule_at(20, [&] { b_ran = true; });
  // The slab reuses the freed slot, so b must carry a fresh generation
  // tag that makes the stale id dead.
  ASSERT_EQ(static_cast<uint32_t>(a), static_cast<uint32_t>(b));
  EXPECT_NE(a, b);
  EXPECT_FALSE(loop.cancel(a));
  loop.run();
  EXPECT_TRUE(b_ran);
}

TEST(EventLoop, CancelAfterFireOfRecycledSlotReturnsFalse) {
  EventLoop loop;
  const EventId a = loop.schedule_at(10, [] {});
  loop.run();
  bool b_ran = false;
  const EventId b = loop.schedule_at(20, [&] { b_ran = true; });
  ASSERT_EQ(static_cast<uint32_t>(a), static_cast<uint32_t>(b));
  EXPECT_FALSE(loop.cancel(a));  // fired long ago; must not kill b
  loop.run();
  EXPECT_TRUE(b_ran);
}

TEST(EventLoop, ScheduleInsideCallbackAtSameTimeRunsAfterPending) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(10, [&] {
    order.push_back(0);
    // Same timestamp, scheduled during dispatch: FIFO seq puts it after
    // the already-pending same-time event.
    loop.schedule_at(10, [&] { order.push_back(2); });
  });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventLoop, SteadyStateScheduleFireCycleDoesNotAllocate) {
  EventLoop loop;
  int n = 0;
  struct Chain {
    EventLoop* loop;
    int* n;
    void operator()() const {
      if (++*n < 1000) loop->schedule_after(1, Chain{loop, n});
    }
  };
  // Warm-up lap grows the slab and the heap array once.
  loop.schedule_after(1, Chain{&loop, &n});
  loop.run();
  n = 0;
  const uint64_t before = alloc_count();
  loop.schedule_after(1, Chain{&loop, &n});
  loop.run();
  EXPECT_EQ(alloc_count(), before);
  EXPECT_EQ(loop.callback_heap_allocs(), 0u);
  EXPECT_EQ(n, 1000);
}

TEST(EventLoop, SteadyStateCancelChurnDoesNotAllocate) {
  EventLoop loop;
  struct Noop {
    void operator()() const {}
  };
  std::vector<EventId> ids;
  ids.reserve(256);
  for (int i = 0; i < 256; ++i) {
    ids.push_back(loop.schedule_after(1000000, Noop{}));
  }
  uint64_t cancelled = 0;
  auto churn_round = [&] {
    for (EventId& id : ids) {
      cancelled += loop.cancel(id) ? 1 : 0;
      id = loop.schedule_after(1000000, Noop{});
    }
    // Cancellation is lazy; advancing the clock one tick prunes this
    // round's dead heap entries (they sort ahead of the replacements).
    loop.run_until(loop.now() + 1);
  };
  churn_round();  // warm-up: heap reaches its steady-state capacity
  const uint64_t before = alloc_count();
  for (int round = 0; round < 100; ++round) churn_round();
  EXPECT_EQ(alloc_count(), before);
  EXPECT_EQ(cancelled, 101u * 256u);
  for (EventId id : ids) loop.cancel(id);
}

}  // namespace
}  // namespace hyperloop::sim
