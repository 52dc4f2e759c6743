#pragma once
// RecoveryManager: deterministic crash recovery = newest valid checkpoint +
// WAL-suffix replay through the normal pipeline (docs/robustness.md, "Crash
// recovery").
//
// Recovery is NOT a special interpretation layer: after restoring the
// checkpointed engine/middleware/counter state, the manager feeds each WAL
// frame back through the exact same entry points the live process used —
// Middleware::ingest(), Middleware::evict_stale(), LocalizationEngine::
// update(). Because every one of those is a deterministic function of its
// input stream, the recovered process's fixes are bit-identical to an
// uninterrupted run under any crash schedule (the crash drill in
// examples/crash_drill.cpp locks this).
//
// Call order on restart:
//   1. build engine + middleware from the SAME config as the crashed run;
//   2. RecoveryManager::recover(engine, middleware, wal_config, writer) —
//      with NO journal attached, so replay does not re-journal itself. It
//      opens the WalWriter first (resuming after the valid prefix), and the
//      writer's reopen walk is the only read of the WAL;
//   3. attach the writer as the middleware's journal; continue operating.
// recover(engine, middleware) is the read-only form: it reads the WAL
// without opening a writer and changes nothing on disk.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <vector>

#include "engine/localization_engine.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "sim/middleware.h"

namespace vire::persist {

struct RecoveryConfig {
  std::filesystem::path wal_dir;
  std::filesystem::path checkpoint_dir;
};

struct RecoveryReport {
  bool checkpoint_loaded = false;
  /// WAL sequence of the loaded checkpoint (replay starts there).
  std::uint64_t checkpoint_sequence = 0;
  std::uint64_t checkpoints_rejected = 0;
  std::uint64_t frames_replayed = 0;
  std::uint64_t readings_replayed = 0;
  std::uint64_t evicts_replayed = 0;
  std::uint64_t updates_replayed = 0;
  /// Highest ingest-batch ack marker replayed (0 when none) — the sender
  /// resends only batches past this sequence after a restart.
  std::uint64_t last_ack_sequence = 0;
  /// Torn/corrupt frames dropped at the WAL tail.
  std::uint64_t corrupt_frames = 0;
  /// Sequence the next WAL frame will get (a fresh WalWriter agrees).
  std::uint64_t next_wal_sequence = 0;
  /// Simulation time the pipeline is restored to: the last replayed update
  /// marker, else the checkpoint's time, else 0.
  sim::SimTime recovered_time = 0.0;
  double recovery_seconds = 0.0;
  /// Fixes produced by each replayed update marker, in order — the replay
  /// half of the bit-identity contract, diffable against a golden trace.
  std::vector<std::vector<engine::Fix>> replayed_fixes;
};

/// Deterministic catch-up helper for recovered *simulated* pipelines. The
/// recovered middleware already holds every reading up to the WAL's end, so
/// when the driving simulator is re-run from t=0 to regenerate its stream,
/// deliveries must be suppressed until the recovered time — after that the
/// gate opens and the stream flows again. Readings regenerated for the
/// overlap window re-deliver idempotently anyway (the middleware's
/// last-write-wins duplicate policy replaces them in place with identical
/// values), so an approximately-placed gate still converges; closing it
/// during catch-up just keeps the replayed window byte-for-byte untouched.
/// Optionally wraps an inner interceptor (e.g. a fault::FaultInjector) so
/// the inner one consumes the exact same stream as in the original run —
/// its internal state stays deterministic while the gate drops the output.
class CatchUpGate final : public sim::ReadingInterceptor {
 public:
  explicit CatchUpGate(sim::ReadingInterceptor* inner = nullptr) noexcept
      : inner_(inner) {}

  void set_open(bool open) noexcept { open_ = open; }
  [[nodiscard]] bool open() const noexcept { return open_; }

  void process(const sim::RssiReading& reading,
               std::vector<sim::RssiReading>& out) override {
    buffer_.clear();
    if (inner_ != nullptr) {
      inner_->process(reading, buffer_);
    } else {
      buffer_.push_back(reading);
    }
    if (open_) out.insert(out.end(), buffer_.begin(), buffer_.end());
  }

  void drain(sim::SimTime now, std::vector<sim::RssiReading>& out) override {
    buffer_.clear();
    if (inner_ != nullptr) inner_->drain(now, buffer_);
    if (open_) out.insert(out.end(), buffer_.begin(), buffer_.end());
  }

 private:
  sim::ReadingInterceptor* inner_;
  bool open_ = true;
  std::vector<sim::RssiReading> buffer_;
};

class RecoveryManager {
 public:
  explicit RecoveryManager(RecoveryConfig config);

  /// Restores `engine` and `middleware` to the crashed process's state.
  /// Registers and updates vire_persist_checkpoint_{loaded,rejected}_total,
  /// vire_persist_wal_{replayed,corrupt}_total and the
  /// vire_persist_recovery_seconds histogram in engine.metrics(), and emits
  /// persist.checkpoint_load / persist.replay spans on engine.tracer().
  /// A missing WAL/checkpoint directory is a cold start: returns an empty
  /// report, the engine is untouched. Emits one persist.wal_walk span
  /// (args: frames walked, frames kept for replay).
  RecoveryReport recover(engine::LocalizationEngine& engine,
                         sim::Middleware& middleware);

  /// recover() for a journal that keeps running: opens `writer` over
  /// config().wal_dir with `wal`'s other settings after the checkpoint
  /// loads, and replays the frames the writer's reopen walk kept. The torn
  /// tail is truncated by that walk and counted once in
  /// vire_persist_wal_corrupt_total (the writer's metrics are attached).
  /// The caller attaches `writer` as the middleware's journal afterwards.
  RecoveryReport recover(engine::LocalizationEngine& engine,
                         sim::Middleware& middleware, WalConfig wal,
                         std::unique_ptr<WalWriter>& writer);

  [[nodiscard]] const RecoveryConfig& config() const noexcept { return config_; }

 private:
  /// Both forms; `writer` null reads the WAL without opening one (and
  /// `wal` is unused).
  RecoveryReport run(engine::LocalizationEngine& engine,
                     sim::Middleware& middleware, WalConfig wal,
                     std::unique_ptr<WalWriter>* writer);

  RecoveryConfig config_;
};

}  // namespace vire::persist
