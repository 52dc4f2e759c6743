#pragma once
// Runtime observability: a thread-safe metrics registry with named counters,
// gauges and fixed-bucket histograms, plus a ScopedTimer RAII helper.
//
// Design constraints (see docs/observability.md):
//  * the hot path is lock-free — counters/gauges/histograms are plain
//    atomics updated with relaxed memory order; the registry mutex is only
//    taken at registration and snapshot time;
//  * instrumentation is a pure side channel: nothing computed from a metric
//    may feed back into localization, so the engine's bit-identical
//    determinism contract holds with metrics enabled;
//  * the library depends on the C++ standard library only, so every layer
//    (support, sim, engine, eval) can link it without cycles.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vire::obs {

/// Monotonically increasing event count. Lock-free.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written scalar (plus an atomic-max update for high-water marks).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Raises the gauge to `v` if `v` is larger (high-water mark).
  void record_max(double v) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (v > current &&
           !value_.compare_exchange_weak(current, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with Prometheus `le` (less-or-equal) semantics:
/// an observation lands in the first bucket whose upper bound is >= v, or
/// the implicit +Inf bucket past the last bound. Bounds are fixed at
/// registration; observations are lock-free. NaN observations are dropped.
class Histogram {
 public:
  /// @param upper_bounds strictly increasing, finite, non-empty.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Finite upper bounds (the +Inf bucket is implicit, index bounds().size()).
  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Non-cumulative count of bucket `i`, i in [0, bounds().size()].
  [[nodiscard]] std::uint64_t bucket_value(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Prometheus-style bucket generators.
[[nodiscard]] std::vector<double> linear_buckets(double start, double step, int count);
[[nodiscard]] std::vector<double> exponential_buckets(double start, double factor,
                                                      int count);
/// Default wall-time buckets for ScopedTimer histograms: 100 µs .. 10 s.
[[nodiscard]] std::vector<double> default_latency_buckets_s();

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Point-in-time copy of one registered metric, for exporters.
struct MetricSnapshot {
  MetricKind kind = MetricKind::kCounter;
  std::string name;    ///< Prometheus family name, e.g. "vire_engine_updates_total"
  std::string labels;  ///< preformatted pairs, e.g. R"(stage="locate")"; may be empty
  std::string help;
  std::uint64_t counter_value = 0;
  double gauge_value = 0.0;
  std::vector<double> bounds;                 ///< histogram only
  std::vector<std::uint64_t> bucket_counts;   ///< size bounds.size() + 1 (+Inf last)
  std::uint64_t hist_count = 0;
  double hist_sum = 0.0;
};

/// Owns metrics and hands out stable references. Registration is idempotent:
/// asking for an existing (name, labels) pair returns the same object, and
/// asking for it with a different kind throws std::invalid_argument.
/// Registration/snapshot lock a mutex; the returned metric objects are
/// lock-free and remain valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const std::string& labels = {},
                   const std::string& help = {});
  Gauge& gauge(const std::string& name, const std::string& labels = {},
               const std::string& help = {});
  Histogram& histogram(const std::string& name, std::vector<double> upper_bounds,
                       const std::string& labels = {}, const std::string& help = {});

  /// Metrics in registration order (exporters group same-name families).
  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;

  [[nodiscard]] std::size_t size() const;

  /// Read-only lookups by exact (name, labels); nullptr when the pair was
  /// never registered or is registered as a different kind. Handy for tests
  /// and dashboards that assert on specific series without registering them.
  [[nodiscard]] const Counter* find_counter(const std::string& name,
                                            const std::string& labels = {}) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name,
                                        const std::string& labels = {}) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name,
                                                const std::string& labels = {}) const;

 private:
  struct Entry {
    MetricKind kind;
    std::string name, labels, help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry* find_locked(const std::string& name, const std::string& labels);

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

/// Records the wall time between construction and destruction into a
/// histogram (seconds). Null histogram => no-op, so call sites can be
/// instrumented unconditionally.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram) noexcept
      : histogram_(histogram),
        start_(histogram ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point{}) {}
  ~ScopedTimer() {
    if (histogram_ != nullptr) histogram_->observe(elapsed_seconds());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  [[nodiscard]] double elapsed_seconds() const noexcept {
    if (histogram_ == nullptr) return 0.0;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// Wall-clock helper for manual (non-RAII) stage timing.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double elapsed_seconds() const noexcept {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace vire::obs
