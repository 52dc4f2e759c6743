#pragma once
// Middleware collector: the software layer between readers and localization.
// Buffers (time, tag, reader, RSSI) readings and serves smoothed per-link
// estimates over a sliding window — the paper's central processing server
// "gathers the information of tags received by readers".
//
// Smoothing matters: the walker-disturbance experiments rely on the
// middleware's outlier-robust aggregation (median or trimmed mean) to filter
// "sudden change of the RSSI value ... when a person walked through".

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/types.h"

namespace vire::sim {

enum class Aggregation {
  kMean,
  kMedian,
  kTrimmedMean,  ///< mean after dropping the top/bottom 20%
};

struct MiddlewareConfig {
  double window_s = 30.0;  ///< readings older than this are evicted
  Aggregation aggregation = Aggregation::kTrimmedMean;
  std::size_t min_samples = 1;  ///< fewer samples than this => no estimate
};

class Middleware {
 public:
  explicit Middleware(int reader_count, MiddlewareConfig config = {});

  /// Buffers one reading. Malformed input is rejected rather than buffered —
  /// a non-finite timestamp or RSSI (clock corruption, parse garbage) or a
  /// reader id outside [0, reader_count) would otherwise poison the window
  /// or index out of range downstream. Rejections are counted per reason via
  /// attach_metrics(); accepting is unchanged for well-formed readings.
  ///
  /// Duplicate policy — last-write-wins: a reading whose (tag, reader, time)
  /// matches a buffered sample *replaces* that sample in place instead of
  /// being appended. At-least-once transports (retry storms, the fault
  /// injector's Duplication entries) and crash-recovery replay therefore
  /// re-deliver idempotently: the window never holds two samples for the
  /// same observation, and re-ingesting an identical stream is a no-op.
  /// Replacements are counted in vire_middleware_duplicates_total /
  /// duplicate_count().
  void ingest(const RssiReading& reading);

  /// Evicts samples outside the sliding window across all links. The window
  /// is the half-open interval (now - window_s, now]: a sample with
  /// time <= now - window_s is evicted (strict comparison), a sample exactly
  /// window_s old is already gone. ingest() applies the same rule
  /// opportunistically per link, keyed on the incoming reading's time.
  void evict_stale(SimTime now);

  /// Smoothed RSSI of (tag, reader) over the window; NaN if insufficient.
  [[nodiscard]] double link_rssi(TagId tag, ReaderId reader) const;

  /// Full K-vector for a tag (NaN where undetected).
  [[nodiscard]] RssiVector rssi_vector(TagId tag) const;

  /// Tags with at least one buffered reading.
  [[nodiscard]] std::vector<TagId> known_tags() const;

  [[nodiscard]] std::size_t sample_count(TagId tag, ReaderId reader) const;
  [[nodiscard]] int reader_count() const noexcept { return reader_count_; }
  [[nodiscard]] const MiddlewareConfig& config() const noexcept { return config_; }

  /// Registers ingest/eviction/rejection/NaN-serve counters with `registry`:
  ///   vire_middleware_readings_ingested_total
  ///   vire_middleware_samples_evicted_total
  ///   vire_middleware_readings_rejected_total{reason="non_finite"}
  ///   vire_middleware_readings_rejected_total{reason="reader_out_of_range"}
  ///   vire_middleware_duplicates_total
  ///   vire_middleware_nan_links_served_total
  /// The registry must outlive this middleware. Pure side channel — serving
  /// RSSI is unchanged.
  void attach_metrics(obs::MetricsRegistry& registry);

  /// Readings rejected by ingest() since construction (all reasons).
  [[nodiscard]] std::uint64_t rejected_count() const noexcept { return rejected_; }

  /// Readings that replaced a buffered sample with the same
  /// (tag, reader, time) under the last-write-wins duplicate policy.
  [[nodiscard]] std::uint64_t duplicate_count() const noexcept { return duplicates_; }

  /// Attaches a durability journal: every accepted reading and every
  /// evict_stale() call is reported, in order, so the persistence layer can
  /// write-ahead-log the middleware's input (see src/persist/). nullptr
  /// detaches. The journal must outlive this middleware; pure side channel.
  void attach_journal(ReadingJournal* journal) noexcept { journal_ = journal; }

  /// Attaches a tracer: ingest rejections become instant events and
  /// evict_stale() batches become complete spans. Pass nullptr to detach.
  /// The tracer must outlive this middleware; same side-channel contract as
  /// attach_metrics.
  void attach_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

  void clear();

  /// One buffered observation of a (tag, reader) link.
  struct Sample {
    SimTime time;
    double rssi_dbm;
  };

  /// Point-in-time copy of the whole sliding window, for engine checkpoints
  /// (src/persist/). Links and samples appear in the same deterministic
  /// order they are stored, so snapshot/restore round-trips bit-identically.
  struct Snapshot {
    struct Link {
      TagId tag = 0;
      ReaderId reader = 0;
      std::vector<Sample> samples;
    };
    std::vector<Link> links;
  };

  [[nodiscard]] Snapshot snapshot() const;
  /// Replaces the buffered window with `snap` (metrics, journal and config
  /// are untouched). Restoring a snapshot taken from an identically
  /// configured middleware reproduces every aggregate bit for bit.
  void restore(const Snapshot& snap);

 private:
  using LinkKey = std::pair<TagId, ReaderId>;

  /// One link's window, oldest first. A vector, not a deque: a window holds
  /// a handful of samples, and a deque's first block alone is 512 bytes.
  using Window = std::vector<Sample>;
  [[nodiscard]] double aggregate(const Window& samples) const;
  /// Drops the leading samples at or before `cutoff` (the window rule of
  /// evict_stale()) and counts them.
  void evict_front(Window& samples, SimTime cutoff);

  int reader_count_;
  MiddlewareConfig config_;
  std::map<LinkKey, Window> links_;
  /// Optional instrumentation (null until attach_metrics). The NaN counter
  /// is bumped from const accessors — counters are atomic, so this stays a
  /// logically-const side channel.
  obs::Counter* readings_ingested_ = nullptr;
  obs::Counter* samples_evicted_ = nullptr;
  obs::Counter* rejected_non_finite_ = nullptr;
  obs::Counter* rejected_reader_range_ = nullptr;
  obs::Counter* duplicates_metric_ = nullptr;
  obs::Counter* nan_links_served_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  ReadingJournal* journal_ = nullptr;
  std::uint64_t rejected_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace vire::sim
