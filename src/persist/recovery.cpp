#include "persist/recovery.h"

#include <stdexcept>
#include <string>

#include "obs/trace.h"
#include "support/log.h"

namespace vire::persist {

RecoveryManager::RecoveryManager(RecoveryConfig config)
    : config_(std::move(config)) {
  if (config_.wal_dir.empty() || config_.checkpoint_dir.empty()) {
    throw std::invalid_argument(
        "RecoveryManager: wal_dir and checkpoint_dir must be set");
  }
}

RecoveryReport RecoveryManager::recover(engine::LocalizationEngine& engine,
                                        sim::Middleware& middleware) {
  return run(engine, middleware, {}, nullptr);
}

RecoveryReport RecoveryManager::recover(engine::LocalizationEngine& engine,
                                        sim::Middleware& middleware,
                                        WalConfig wal,
                                        std::unique_ptr<WalWriter>& writer) {
  return run(engine, middleware, std::move(wal), &writer);
}

RecoveryReport RecoveryManager::run(engine::LocalizationEngine& engine,
                                    sim::Middleware& middleware,
                                    WalConfig wal_config,
                                    std::unique_ptr<WalWriter>* writer) {
  RecoveryReport report;
  const obs::Stopwatch watch;
  obs::MetricsRegistry& metrics = engine.metrics();
  obs::Tracer& tracer = engine.tracer();

  obs::Counter& replayed_metric =
      metrics.counter("vire_persist_wal_replayed_total", {},
                      "WAL frames replayed through the pipeline at recovery");
  obs::Counter& corrupt_metric = metrics.counter(
      "vire_persist_wal_corrupt_total", {},
      "Torn/corrupt WAL frames dropped (truncated at open or skipped at read)");
  obs::Histogram& recovery_seconds = metrics.histogram(
      "vire_persist_recovery_seconds", obs::default_latency_buckets_s(), {},
      "Wall time of checkpoint load + WAL replay at recovery");

  // 1. Newest valid checkpoint, falling back past corrupt/mismatched files.
  std::uint64_t from_sequence = 0;
  {
    const obs::TraceSpan span(&tracer, "persist.checkpoint_load");
    CheckpointStoreConfig store_config;
    store_config.dir = config_.checkpoint_dir;
    CheckpointStore store(store_config);
    store.attach_metrics(metrics);
    auto [checkpoint, rejected] =
        store.load_newest_valid(engine_config_fingerprint(engine.config()));
    report.checkpoints_rejected = rejected;
    if (checkpoint.has_value()) {
      report.checkpoint_loaded = true;
      report.checkpoint_sequence = checkpoint->wal_sequence;
      report.recovered_time = checkpoint->sim_time;
      from_sequence = checkpoint->wal_sequence;
      // Counters first: engine/monitor restore() never touch metric
      // counters, exactly so this is the single place they are set.
      restore_counters(metrics, checkpoint->counters);
      engine.restore(checkpoint->engine);
      middleware.restore(checkpoint->middleware);
    }
  }

  // 2. One walk over the retained WAL: the writer's reopen walk when the
  //    journal keeps running (it also truncates a torn tail), else a
  //    read-only read.
  WalReadResult wal;
  {
    const double walk_start_us = tracer.now_us();
    if (writer == nullptr) {
      wal = read_wal(config_.wal_dir, from_sequence);
      corrupt_metric.inc(wal.corrupt_frames);
    } else {
      wal_config.dir = config_.wal_dir;
      *writer = std::make_unique<WalWriter>(std::move(wal_config),
                                            from_sequence, &wal);
      (*writer)->attach_metrics(metrics);  // counts the truncated tail
    }
    if (tracer.enabled()) {
      tracer.complete("persist.wal_walk", walk_start_us, tracer.now_us(),
                      "{\"walked\":" + std::to_string(wal.frames_walked) +
                          ",\"kept\":" + std::to_string(wal.frames.size()) +
                          "}");
    }
  }

  // 3. Replay the WAL suffix through the normal pipeline entry points.
  if (!report.checkpoint_loaded && !wal.frames.empty() &&
      wal.frames.front().sequence > 1) {
    // The log was pruned behind checkpoints that are all gone now: what is
    // left is a suffix of history, not all of it.
    support::log_warn(
        "recovery: no valid checkpoint, and the WAL starts at frame %llu: "
        "replaying a pruned suffix, not the whole history",
        static_cast<unsigned long long>(wal.frames.front().sequence));
  }
  report.corrupt_frames = wal.corrupt_frames;
  report.next_wal_sequence =
      wal.next_sequence != 0 ? wal.next_sequence
                             : (from_sequence != 0 ? from_sequence : 1);
  {
    const obs::TraceSpan span(
        &tracer, "persist.replay",
        tracer.enabled()
            ? "{\"frames\":" + std::to_string(wal.frames.size()) + "}"
            : std::string{});
    for (const WalFrame& frame : wal.frames) {
      switch (frame.type) {
        case FrameType::kReading:
          middleware.ingest(frame.reading);
          ++report.readings_replayed;
          break;
        case FrameType::kEvict:
          middleware.evict_stale(frame.time);
          ++report.evicts_replayed;
          break;
        case FrameType::kUpdate:
          report.replayed_fixes.push_back(engine.update(middleware, frame.time));
          report.recovered_time = frame.time;
          ++report.updates_replayed;
          break;
        case FrameType::kAck:
          // Pure bookkeeping for the sender-side resend window; never touches
          // the middleware or engine.
          if (frame.ack_sequence > report.last_ack_sequence) {
            report.last_ack_sequence = frame.ack_sequence;
          }
          break;
      }
      ++report.frames_replayed;
      replayed_metric.inc();
    }
  }

  report.recovery_seconds = watch.elapsed_seconds();
  recovery_seconds.observe(report.recovery_seconds);
  if (report.checkpoint_loaded || report.frames_replayed > 0) {
    support::log_info(
        "recovery: checkpoint@%llu %s, %llu frames replayed "
        "(%llu readings, %llu evicts, %llu updates), %llu corrupt, t=%.3f",
        static_cast<unsigned long long>(report.checkpoint_sequence),
        report.checkpoint_loaded ? "loaded" : "absent",
        static_cast<unsigned long long>(report.frames_replayed),
        static_cast<unsigned long long>(report.readings_replayed),
        static_cast<unsigned long long>(report.evicts_replayed),
        static_cast<unsigned long long>(report.updates_replayed),
        static_cast<unsigned long long>(report.corrupt_frames),
        report.recovered_time);
  }
  return report;
}

}  // namespace vire::persist
