#pragma once
// Span-based pipeline tracer emitting Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing).
//
// Design constraints (see docs/observability.md):
//  * disabled tracing costs ~zero on the hot path: every recording entry
//    point starts with one relaxed atomic-bool load and returns — no locks,
//    no allocation, no clock read;
//  * enabled tracing buffers into a fixed-capacity ring (oldest events are
//    overwritten, never reallocated), guarded by a mutex — worker threads
//    emit concurrently, and event rates are span-per-stage/task, not
//    per-sample, so the mutex is uncontended in practice;
//  * tracing is a pure side channel: timestamps are wall clock and never
//    feed back into localization, so the engine's bit-identical determinism
//    contract holds with tracing on (covered by
//    tests/engine/trace_pipeline_test.cpp).
//
// Timestamps are microseconds since the tracer's construction (steady
// clock). Thread ids are small stable integers assigned per OS thread on
// first use; set_thread_name() attaches Perfetto thread labels.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace vire::obs {

/// Cross-process trace identity stamped on wire frames (service/wire.h): a
/// shard that adopts the context records its spans under the supervisor's
/// batch span. All-zero means "no context" and is always safe to pass.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
};

/// One recorded event, already reduced to Chrome trace-event fields.
struct TraceEvent {
  std::string name;
  char ph = 'X';        ///< 'X' complete, 'i' instant
  char scope = 't';     ///< instant events only: 't' thread, 'p' process, 'g' global
  double ts_us = 0.0;   ///< microseconds since tracer epoch
  double dur_us = 0.0;  ///< complete events only
  std::uint32_t tid = 0;
  std::string args;     ///< preformatted JSON object (e.g. R"({"tag":3})"), may be empty
};

class Tracer {
 public:
  /// @param capacity ring size in events (>= 1); the last `capacity` events
  ///        are retained, older ones are overwritten and counted as dropped.
  ///        The ring's memory is reserved at the first recorded event, so a
  ///        tracer that never records costs no ring at all.
  explicit Tracer(std::size_t capacity = 65536);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Tracing starts disabled; recording entry points are no-ops until this
  /// is flipped on (a relaxed atomic load is the entire disabled cost).
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Microseconds since tracer construction (steady clock), plus any
  /// configured skew. Works whether or not tracing is enabled.
  [[nodiscard]] double now_us() const noexcept {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count() +
           skew_us_.load(std::memory_order_relaxed);
  }

  /// Test seam for fleet clock alignment: shifts this tracer's clock by a
  /// constant, as if the process were started on a machine whose monotonic
  /// clock reads `skew_us` ahead. Span timestamps and the clock reported in
  /// dump()/heartbeats shift together, so NTP-style offset estimation
  /// against a skewed tracer must cancel the skew exactly.
  void set_clock_skew_us(double skew_us) noexcept {
    skew_us_.store(skew_us, std::memory_order_relaxed);
  }

  /// Records a complete ('X') event spanning [start_us, end_us].
  void complete(std::string name, double start_us, double end_us,
                std::string args = {});
  /// Records an instant ('i') event at the current time. `scope` 'g' draws
  /// a full-height marker line in Perfetto — used for fault injections and
  /// quality transitions so cause and effect line up visually.
  void instant(std::string name, std::string args = {}, char scope = 't');

  /// Stable small id of the calling thread (assigned on first use).
  [[nodiscard]] std::uint32_t thread_id();
  /// Names the calling thread in the trace (Perfetto thread_name metadata).
  void set_thread_name(std::string name);

  /// Events currently retained, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  /// Portable export of the ring for cross-process aggregation: the most
  /// recent `max_events` events (0 = all retained), the thread-name table,
  /// and this clock's current reading (so the receiver can rebase).
  [[nodiscard]] struct TraceDump dump(std::size_t max_events = 0) const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Events recorded since construction (including overwritten ones).
  [[nodiscard]] std::uint64_t recorded() const noexcept;
  /// Events lost to ring overwrite.
  [[nodiscard]] std::uint64_t dropped() const noexcept;
  void clear();

  /// Renders the retained events as a Chrome trace-event JSON document
  /// ({"displayTimeUnit":"ms","traceEvents":[...]}), including process and
  /// thread-name metadata events.
  [[nodiscard]] std::string to_chrome_json() const;
  /// Writes to_chrome_json() to `path`, creating parent directories.
  /// Throws std::runtime_error on I/O failure.
  void write_chrome_json(const std::filesystem::path& path) const;

 private:
  void push(TraceEvent event);

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::atomic<double> skew_us_{0.0};
  std::size_t capacity_;
  mutable std::mutex mutex_;
  /// Grows to capacity_ (reserved once, at the first event, so it is never
  /// reallocated), then wraps: size() == min(head_, capacity_).
  std::vector<TraceEvent> ring_;
  std::uint64_t head_ = 0;             ///< total events pushed (next slot = head_ % capacity_)
  std::vector<std::pair<std::uint32_t, std::string>> thread_names_;
};

/// Portable snapshot of a tracer's ring, suitable for shipping across the
/// wire (service/wire.h owns the binary codec — obs stays persist-free).
struct TraceDump {
  /// The source clock's now_us() at dump time; lets the receiver rebase
  /// event timestamps onto its own timeline via a clock-offset estimate.
  double now_us = 0.0;
  std::vector<TraceEvent> events;
  std::vector<std::pair<std::uint32_t, std::string>> thread_names;
};

/// Shifts every event timestamp (and the dump clock) by -offset_us, mapping
/// a remote dump onto the local timeline given offset_us = remote - local.
void rebase(TraceDump& dump, double offset_us);

/// One process's contribution to a merged fleet trace.
struct FleetProcess {
  std::uint32_t pid = 1;  ///< Perfetto process id (unique per fleet member)
  std::string name;       ///< process_name metadata, e.g. "vire-shardd-0"
  TraceDump dump;         ///< already rebased onto the merged timeline
};

/// Renders the processes as one Chrome trace-event JSON document: per-process
/// process_name metadata, per-(pid,tid) thread_name metadata, then every
/// event under its owning pid. Same schema as Tracer::to_chrome_json().
[[nodiscard]] std::string fleet_chrome_json(
    const std::vector<FleetProcess>& processes);

/// NTP-style clock-offset estimator for one remote peer. Each observation is
/// a request/response round trip: local send time t0, local receive time t1,
/// and the peer clock read between them. The midpoint estimate
/// peer - (t0 + t1) / 2 is exact for symmetric network delay and off by at
/// most half the round trip otherwise; samples are EWMA-smoothed so a single
/// delayed heartbeat cannot yank the fleet timeline around.
class ClockOffsetEstimator {
 public:
  /// @param alpha smoothing weight of the newest sample in (0, 1].
  explicit ClockOffsetEstimator(double alpha = 0.25) : alpha_(alpha) {}

  void observe(double t0_us, double t1_us, double peer_now_us) {
    const double sample = peer_now_us - (t0_us + t1_us) / 2.0;
    offset_us_ = samples_ == 0 ? sample
                               : (1.0 - alpha_) * offset_us_ + alpha_ * sample;
    last_rtt_us_ = t1_us - t0_us;
    ++samples_;
  }

  /// Forget everything (the peer restarted, so its clock epoch moved).
  void reset() noexcept {
    offset_us_ = 0.0;
    last_rtt_us_ = 0.0;
    samples_ = 0;
  }

  [[nodiscard]] bool valid() const noexcept { return samples_ > 0; }
  /// Estimated peer_clock - local_clock in microseconds (0 until valid()).
  [[nodiscard]] double offset_us() const noexcept { return offset_us_; }
  [[nodiscard]] double last_rtt_us() const noexcept { return last_rtt_us_; }
  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }

 private:
  double alpha_;
  double offset_us_ = 0.0;
  double last_rtt_us_ = 0.0;
  std::uint64_t samples_ = 0;
};

/// RAII span: records one complete event from construction to destruction.
/// Null or disabled tracer => fully inert (no clock read).
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, const char* name, std::string args = {})
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        name_(name),
        args_(std::move(args)),
        start_us_(tracer_ != nullptr ? tracer_->now_us() : 0.0) {}
  ~TraceSpan() {
    if (tracer_ != nullptr) {
      tracer_->complete(name_, start_us_, tracer_->now_us(), std::move(args_));
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Replaces the args the span ends with, for args its own work computes.
  void set_args(std::string args) { args_ = std::move(args); }

 private:
  Tracer* tracer_;
  const char* name_;
  std::string args_;
  double start_us_;
};

}  // namespace vire::obs
