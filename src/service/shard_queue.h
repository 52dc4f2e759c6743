#pragma once
// Bounded MPSC op queue feeding one localization shard (docs/service.md).
//
// The service thread enqueues ops; exactly one shard worker thread pops and
// executes them. FIFO order is the determinism backbone: because every op a
// shard receives is executed in enqueue order by a single consumer, a
// shard's engine sees the same ingest/evict/update sequence regardless of
// scheduling — bit-identical fixes at any shard count fall out of that.
//
// Backpressure applies to reading batches only: a producer pushing into a
// full queue waits for room (lossless, so the stream a shard sees never
// depends on scheduling). Control ops (evict, update, control closures,
// stop) always enqueue: dropping an update would desync the shard from the
// poll schedule, and blocking one could deadlock the barrier that drains
// the queue.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <utility>
#include <vector>

#include "engine/localization_engine.h"
#include "sim/types.h"

namespace vire::service {

class ShardQueue {
 public:
  /// An ingest batch's durable-ack boundary inside a kReadings op: the
  /// batch ends after the op's first `end` readings.
  struct Ack {
    std::size_t end = 0;
    std::uint64_t sequence = 0;
  };

  struct Op {
    enum class Kind : std::uint8_t { kReadings, kEvict, kUpdate, kControl, kStop };
    Kind kind = Kind::kReadings;
    std::vector<sim::RssiReading> readings;           ///< kReadings
    std::vector<Ack> acks;                            ///< kReadings, by end
    sim::SimTime time = 0.0;                          ///< kEvict / kUpdate
    std::function<void()> control;                    ///< kControl
    std::promise<std::vector<engine::Fix>> fixes;     ///< kUpdate
  };

  explicit ShardQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  ShardQueue(const ShardQueue&) = delete;
  ShardQueue& operator=(const ShardQueue&) = delete;

  /// Enqueues a reading batch with the acks of the ingest batches that end
  /// in it, waiting for room while `capacity` batches are already queued.
  void push_readings(std::vector<sim::RssiReading> batch,
                     std::vector<Ack> acks = {}) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (reading_batches_ >= capacity_) {
        ++blocked_;
        not_full_.wait(lock, [&] { return reading_batches_ < capacity_; });
      }
      Op op;
      op.kind = Op::Kind::kReadings;
      op.readings = std::move(batch);
      op.acks = std::move(acks);
      queue_.push_back(std::move(op));
      ++reading_batches_;
      if (queue_.size() > high_water_) high_water_ = queue_.size();
    }
    not_empty_.notify_one();
  }

  void push_evict(sim::SimTime now) {
    Op op;
    op.kind = Op::Kind::kEvict;
    op.time = now;
    push_control_op(std::move(op));
  }

  /// Enqueues an update boundary; the future resolves with the shard's fixes
  /// once the worker has executed it (or with the exception it threw).
  std::future<std::vector<engine::Fix>> push_update(sim::SimTime now) {
    Op op;
    op.kind = Op::Kind::kUpdate;
    op.time = now;
    auto future = op.fixes.get_future();
    push_control_op(std::move(op));
    return future;
  }

  void push_control(std::function<void()> fn) {
    Op op;
    op.kind = Op::Kind::kControl;
    op.control = std::move(fn);
    push_control_op(std::move(op));
  }

  /// Terminates the worker loop after every previously queued op.
  void push_stop() {
    Op op;
    op.kind = Op::Kind::kStop;
    push_control_op(std::move(op));
  }

  /// Discards every queued op (a simulated shard crash: in-flight work is
  /// lost exactly as a killed process would lose it). Returns ops discarded.
  /// Pending update promises are broken, so waiters see an exception rather
  /// than a hang.
  std::size_t discard_pending() {
    std::deque<Op> discarded;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      discarded.swap(queue_);
      reading_batches_ = 0;
    }
    not_full_.notify_all();
    return discarded.size();  // promises in `discarded` break on destruction
  }

  /// Blocks until an op is available and dequeues it (single consumer).
  Op pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return !queue_.empty(); });
    Op op = std::move(queue_.front());
    queue_.pop_front();
    if (op.kind == Op::Kind::kReadings) {
      --reading_batches_;
      not_full_.notify_one();
    }
    return op;
  }

  [[nodiscard]] std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }
  [[nodiscard]] std::size_t high_water() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return high_water_;
  }
  /// push_readings calls that had to wait for room.
  [[nodiscard]] std::uint64_t blocked() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return blocked_;
  }

 private:
  void push_control_op(Op op) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(op));
      if (queue_.size() > high_water_) high_water_ = queue_.size();
    }
    not_empty_.notify_one();
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Op> queue_;
  std::size_t reading_batches_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t blocked_ = 0;
};

}  // namespace vire::service
