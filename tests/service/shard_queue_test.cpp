// ShardQueue semantics: FIFO order, blocking backpressure, control ops
// bypassing capacity, and crash-discard behavior.

#include "service/shard_queue.h"

#include <gtest/gtest.h>

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
  std::vector<int> ran;
  queue.push_readings({reading(1)});
  queue.push_control([&] { ran.push_back(2); });
  queue.push_readings({reading(3)});
  queue.push_control([&] { ran.push_back(4); });
  EXPECT_EQ(queue.pop().kind, ShardQueue::Op::Kind::kReadings);
  auto op = queue.pop();
  ASSERT_EQ(op.kind, ShardQueue::Op::Kind::kControl);
  op.control();
  op = queue.pop();
  ASSERT_EQ(op.kind, ShardQueue::Op::Kind::kReadings);
  EXPECT_EQ(op.readings[0].tag, 3u);
  op = queue.pop();
  ASSERT_EQ(op.kind, ShardQueue::Op::Kind::kControl);
  op.control();
  EXPECT_EQ(ran, (std::vector<int>{2, 4}));
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
  queue.push_control([] {});
  queue.push_control([] {});
  queue.push_stop();
  EXPECT_EQ(queue.depth(), 4u);
  EXPECT_EQ(queue.blocked(), 0u);
  EXPECT_EQ(queue.pop().kind, ShardQueue::Op::Kind::kReadings);
  EXPECT_EQ(queue.pop().kind, ShardQueue::Op::Kind::kControl);
  EXPECT_EQ(queue.pop().kind, ShardQueue::Op::Kind::kControl);
  EXPECT_EQ(queue.pop().kind, ShardQueue::Op::Kind::kStop);
}

TEST(ShardQueueTest, DiscardPendingDropsEveryOpAndFreesRoom) {
  ShardQueue queue(1);
  bool ran = false;
  queue.push_readings({reading(1)});
  queue.push_control([&] { ran = true; });
  EXPECT_EQ(queue.discard_pending(), 2u);
  EXPECT_EQ(queue.depth(), 0u);
  // The discarded batch no longer counts against the capacity.
  queue.push_readings({reading(2)});
  EXPECT_EQ(queue.blocked(), 0u);
  EXPECT_EQ(queue.pop().readings[0].tag, 2u);
  EXPECT_FALSE(ran);
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
