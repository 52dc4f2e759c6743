// ShardQueue semantics: FIFO order, blocking backpressure, control ops
// bypassing capacity, and crash-discard behavior.

#include "service/shard_queue.h"

#include <gtest/gtest.h>

#include <future>
#include <thread>
#include <vector>

namespace vire::service {
namespace {

sim::RssiReading reading(sim::TagId tag) {
  sim::RssiReading r;
  r.tag = tag;
  return r;
}

TEST(ShardQueueTest, PopsInFifoOrder) {
  ShardQueue queue(16);
  queue.push_readings({reading(1)});
  queue.push_evict(2.0);
  queue.push_readings({reading(3)});
  auto f = queue.push_update(4.0);
  EXPECT_EQ(queue.pop().kind, ShardQueue::Op::Kind::kReadings);
  EXPECT_EQ(queue.pop().kind, ShardQueue::Op::Kind::kEvict);
  auto op = queue.pop();
  ASSERT_EQ(op.kind, ShardQueue::Op::Kind::kReadings);
  EXPECT_EQ(op.readings[0].tag, 3u);
  op = queue.pop();
  ASSERT_EQ(op.kind, ShardQueue::Op::Kind::kUpdate);
  op.fixes.set_value({});
  EXPECT_EQ(f.get().size(), 0u);
}

TEST(ShardQueueTest, FullQueueWaitsForRoomAndCounts) {
  ShardQueue queue(1);
  queue.push_readings({reading(1)});
  std::thread producer([&] { queue.push_readings({reading(2)}); });
  // The producer must be parked until the consumer makes room.
  while (queue.blocked() == 0) std::this_thread::yield();
  EXPECT_EQ(queue.depth(), 1u);
  auto op = queue.pop();
  EXPECT_EQ(op.readings[0].tag, 1u);
  producer.join();
  op = queue.pop();
  EXPECT_EQ(op.readings[0].tag, 2u);
  EXPECT_EQ(queue.blocked(), 1u);
}

TEST(ShardQueueTest, ControlOpsBypassCapacity) {
  ShardQueue queue(1);
  queue.push_readings({reading(1)});
  // None of these may block despite the full queue.
  queue.push_evict(1.0);
  auto f = queue.push_update(2.0);
  queue.push_control([] {});
  queue.push_stop();
  EXPECT_EQ(queue.depth(), 5u);
  EXPECT_EQ(queue.blocked(), 0u);
  (void)queue.pop();
  (void)queue.pop();
  queue.pop().fixes.set_value({});
  (void)f.get();
}

TEST(ShardQueueTest, DiscardPendingBreaksUpdatePromises) {
  ShardQueue queue(8);
  queue.push_readings({reading(1)});
  auto f = queue.push_update(1.0);
  EXPECT_EQ(queue.discard_pending(), 2u);
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_THROW(f.get(), std::future_error) << "waiter must not hang";
}

TEST(ShardQueueTest, HighWaterTracksDeepestQueue) {
  ShardQueue queue(8);
  for (int i = 0; i < 5; ++i) queue.push_readings({reading(1)});
  for (int i = 0; i < 5; ++i) (void)queue.pop();
  EXPECT_EQ(queue.high_water(), 5u);
  EXPECT_EQ(queue.depth(), 0u);
}

}  // namespace
}  // namespace vire::service
